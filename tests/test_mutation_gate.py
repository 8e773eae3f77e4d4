"""How the mutation gate (``tests/mutants.py``) judges a child: one that runs
out of memory is an error, never a kill."""

import signal
import subprocess

import mutants


def test_a_child_over_the_memory_bound_reports_an_error(tmp_path):
    # the child's test allocates MEMORY bytes, past its bound: the MemoryError
    # fails the test, which pytest reports as it reports a caught mutant
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "conftest.py").write_text("from hypothesis import settings\n\nsettings.register_profile('mutants')\n")
    (tests / "test_grow.py").write_text(f"def test_grow():\n    bytearray({mutants.MEMORY})\n")
    done = mutants.pytest(tmp_path, ["tests/test_grow.py"], mutants.TIMEOUT)
    assert done.returncode == 1 and "MemoryError" in done.stdout
    assert mutants.verdict(done) == "error: out of memory"


def test_verdicts():
    def outcome(returncode, stdout=""):
        return mutants.verdict(subprocess.CompletedProcess([], returncode, stdout, ""))

    assert outcome(1, "1 failed") == "killed"
    assert outcome(0, "1 passed") == "survived"
    assert outcome(-signal.SIGKILL) == "error: out of memory"
    assert outcome(2, "no tests ran").startswith("error: pytest exited 2")
