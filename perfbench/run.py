#!/usr/bin/env python3
"""lcslab benchmark: cold CLI verdicts in a closed loop with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lcsN --seed 3 --seconds 20 --trace 0

With ``--trace 0`` it spawns one cold ``lcslab`` command at a time and
reports the end-to-end metrics, scaled to a fixed machine speed (see
REFERENCE below).  With ``--trace 1`` it runs the same ops
in-process with wrappers around each layer and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the provenance.  ``--help`` lists the workloads, the metrics and the
layer each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE_DIR = ROOT / "tests"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from layers import STAGES  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
HASH_SEED = "0"
CHILD_TIMEOUT_S = 60
# what the installed `lcslab` console script runs
CHILD_MAIN = "import sys; from lcslab.cli import main; sys.exit(main())"
# The CPU speed a process gets on a shared machine moves by 30-60 % for
# tens of seconds at a time, for wall and CPU time alike.  Bounded times
# are therefore scaled to a fixed speed: by REFERENCE_MS over the wall time
# of this fixed, engine-independent cold process (interpreter start plus
# dict-of-tuple integer arithmetic), measured at most a second before.
# Unscaled values are kept in the result file.
REFERENCE = (
    "d = {}\n"
    "for i in range(60000):\n"
    "    k = (i % 97, i % 89, i % 83)\n"
    "    d[k] = d.get(k, 0) + i * 3\n"
    "sorted(d.items())\n"
)
REFERENCE_MS = 125.0
REFERENCE_INTERVAL_S = 1.0

END_TO_END = (
    ("verdict_ms.p50", "ms", "median wall time of one cold CLI command, spawn to exit, speed-scaled"),
    ("verdict_ms.tail", "ms", "speed-scaled wall time at the workload's tail percentile (see below)"),
    ("verdict_cpu_ms.p50", "ms", "median user+sys CPU time of one command (wait4 rusage), speed-scaled"),
    ("reports_per_s", "1/s", "verified reports per second of speed-scaled command time"),
    ("peak_rss_mb", "MB", "largest max RSS of any child in the timed loop"),
    ("setup_s", "s", f"median of {SETUP_REPEATS} speed-scaled set-ups: inputs, golden, numeric oracle, warm-up"),
)
# reported on the summary line and as `failed`/`attempted`; it is 0 on
# working code, so it is not a bounded metric
FAILED_FRAC = ("failed_frac", "frac", "failed ops / attempted ops under the correctness gate")

PER_LAYER = (
    ("import.interp_ms", "ms", "`python -c pass`", "verdict_ms.p50 on paper3; ~0 share on lcsN/dense"),
    ("import.lcslab_ms", "ms", "`import lcslab.cli` minus interp", "verdict_ms.p50 on paper3"),
    ("cli.load.ms", "ms", "cli.load + cli.build_manifold", "paper3"),
    ("cli.report.ms", "ms", "Report.to_json", "paper3"),
    ("stage.brackets.ms", "ms", "self time, ManifoldData.brackets", "paper3"),
    ("stage.connection.ms", "ms", "self time, ManifoldData.connection", "lcsN, dense"),
    ("stage.stack.ms", "ms", "self time, ManifoldData.stack", "dense, lcsN"),
    ("stage.nabla_ricci.ms", "ms", "self time, ManifoldData.nabla_ricci", "paper3 (fit SGRR, conformance)"),
    ("stage.nabla_riemann.ms", "ms", "self time, ManifoldData.nabla_riemann", "lcsN (largest stage there)"),
    ("stage.m_projective.ms", "ms", "self time, ManifoldData.m_projective", "dense, lcsN"),
    ("stage.concircular.ms", "ms", "self time, ManifoldData.concircular", "lcsN, dense"),
    ("stage.structure.ms", "ms", "self time, derive_structure", "paper3, lcsN"),
    ("check.self_check.ms", "ms", "CurvatureStack.self_check", "lcsN (grows as n^4)"),
    ("check.axioms.ms", "ms", "verify_axioms", "lcsN"),
    ("conditions.fit.ms", "ms", "recurrence_fit", "paper3"),
    ("conditions.residual.ms", "ms", "recurrence_residual", "paper3"),
    ("conditions.derived.ms", "ms", "derived_condition_residuals + nabla_r_xi_identity", "lcsN"),
    ("conditions.soliton.ms", "ms", "soliton_residual", "paper3"),
    *((f"stage.{s}.expr_new", "count", f"Expr constructions inside the {s} stage", f"as stage.{s}.ms") for s in STAGES),
    ("symexpr.expr_new", "count", "Expr constructions (__init__ + _raw)", "lcsN (zero fast path)"),
    ("symexpr.expr_zero_frac", "frac", "share of constructed Exprs that are zero", "lcsN; unchanged on dense"),
    ("symexpr.max_terms", "count", "largest numerator + denominator term count", "dense"),
    ("polyops.poly_gcd.calls", "count", "poly_gcd calls", "dense"),
    ("polyops.poly_gcd.ms", "ms", "poly_gcd busy time (counting pass)", "dense"),
    ("polyops.poly_gcd.fallback_frac", "frac", "share of GCDs that fall back to _gcd_rec", "dense"),
    ("kernels.poly_mul.calls", "count", "poly_mul calls", "dense; ~0 share on lcsN"),
    ("kernels.poly_divexact.calls", "count", "poly_divexact calls", "dense"),
    ("kernels.poly_lead.calls", "count", "poly_lead calls (also inside poly_divexact)", "dense"),
    ("kernels.poly_mul.ms", "ms", "poly_mul busy time (counting pass)", "dense"),
    ("kernels.poly_divexact.ms", "ms", "poly_divexact busy time (counting pass)", "dense"),
    ("trace.coverage", "frac", "layer self time / traced op time", "none; validates the trace"),
    ("trace.overhead_frac", "frac", "traced / untraced in-process time - 1", "none; validates the trace"),
)


def tail_percentile(op_count: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND samples above it."""
    return max(50, min(99, math.floor(100 * (1 - TAIL_BEYOND / op_count))))


def help_epilog() -> str:
    lines = ["workloads (closed loop, one client, one child at a time):"]
    folder = OUT / "inputs" / "help"
    for w in WORKLOADS.values():
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        ops = len(w.build(DEFAULT_SEED, folder))
        n_min = ops * w.min_rounds
        lines.append(f"  {w.name:<7} {w.why}")
        lines.append(f"          {ops} ops a round, at least {w.min_rounds} rounds; tail = p{tail_percentile(n_min)}")
    lines.append("")
    lines.append("end-to-end metrics (--trace 0), per workload:")
    for name, unit, what in (*END_TO_END, FAILED_FRAC):
        lines.append(f"  {name:<20} {unit:<5} {what}")
    lines.append("")
    lines.append("per-layer metrics (--trace 1), per round of ops; layer -> what it should move:")
    for name, unit, what, moves in PER_LAYER:
        lines.append(f"  {name:<32} {unit:<5} {what}  -> {moves}")
    shutil.rmtree(folder, ignore_errors=True)
    return "\n".join(lines)


def child_env() -> dict:
    """The fixed environment every child gets; recorded in the provenance."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC), "PYTHONHASHSEED": HASH_SEED}
    for key in ("PYTHONDONTWRITEBYTECODE", "LCSLAB_PURE_PYTHON"):
        if key in os.environ:
            env[key] = os.environ[key]
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # it exited just before the deadline


class Child:
    """One cold process at a time; output goes to files, usage via wait4."""

    def __init__(self, env: dict, folder: Path):
        self.env = env
        self.stdout = folder / "stdout"
        self.stderr = folder / "stderr"

    def run(self, code: str, args=()):
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, *args], self.env, file_actions=actions)
            # a hung command fails its op instead of stalling the run
            killer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
            killer.start()
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def output(self) -> tuple[bytes, bytes]:
        return self.stdout.read_bytes(), self.stderr.read_bytes()

    def speed(self) -> float:
        """REFERENCE_MS over the reference child's wall time right now."""
        code, wall, _, _ = self.run(REFERENCE)
        if code != 0:
            raise RuntimeError("the reference child failed")
        return REFERENCE_MS / (wall * 1e3)


def source_digest() -> tuple[str, list[str]]:
    """Digest of the engine sources plus any compiled kernels found in src/."""
    h = hashlib.sha256()
    files = sorted(p for p in (SRC / "lcslab").iterdir() if p.suffix in (".py", ".pyx", ".so"))
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest(), [p.name for p in files if p.suffix == ".so"]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def load_golden(workload: str, seed: int) -> dict | None:
    """The default seed's report digests, op id -> sha256; None otherwise."""
    if seed != DEFAULT_SEED or not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


class SetUp:
    """Inputs, golden digests, the numeric oracle and the warm-up, repeated
    to time them; then the generator self-check, once and untimed."""

    def __init__(self, workload, seed: int, child: Child):
        import checks
        from lcslab import cli
        from numeric_oracle import NumericTwin

        self.workload, self.seed, self.child = workload, seed, child
        self.checks, self.cli, self.twin = checks, cli, NumericTwin
        self.folder = OUT / "inputs" / f"{workload.name}-{seed}"
        self.durations: list[tuple[float, float]] = []  # (seconds, speed)
        self.input_digest = None
        self.ops = self.golden = self.backend = None

    def once(self) -> None:
        speed = self.child.speed()
        start = time.perf_counter()
        shutil.rmtree(self.folder, ignore_errors=True)
        self.folder.mkdir(parents=True)
        ops = self.workload.build(self.seed, self.folder)
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in sorted(self.folder.iterdir()))).hexdigest()
        if self.input_digest not in (None, digest):
            raise self.checks.GeneratorError("the same seed wrote different inputs")
        self.input_digest = digest
        self.golden = load_golden(self.workload.name, self.seed)
        for path in self.definitions(ops):
            data = self.cli.build_manifold(self.cli.load(path))
            self.checks.oracle(data, self.twin, random.Random(f"oracle:{self.seed}:{data.name}"))
        # warm-up: import (and, unless PYTHONDONTWRITEBYTECODE, byte-compile)
        # the package; report the backend the children run
        code, _, _, _ = self.child.run("import lcslab, lcslab.cli; print(lcslab.KERNEL_BACKEND)")
        out, err = self.child.output()
        if code != 0:
            raise RuntimeError(f"a child cannot import lcslab: {err.decode(errors='replace').strip()}")
        self.backend = out.decode().strip()
        self.ops = ops
        self.durations.append((time.perf_counter() - start, speed))

    def check_generator(self) -> None:
        if self.workload.self_check:
            for path in self.definitions(self.ops):
                data = self.cli.build_manifold(self.cli.load(path))
                self.checks.self_check(self.cli, data, self.workload.self_check)

    @staticmethod
    def definitions(ops) -> list[str]:
        return list(dict.fromkeys(op.definition for op in ops))

    def order(self, round_index: int) -> list:
        ops = list(self.ops)
        random.Random(f"order:{self.seed}:{round_index}").shuffle(ops)
        return ops


def timed_loop(setup: SetUp, seconds: float):
    """Whole rounds, at least the workload's minimum, until `seconds` pass.

    A reference child runs before an op whenever a second has passed since
    the last one, and once at the end; each op's times are scaled by the
    mean speed of the references before and after it.
    """
    child = setup.child
    samples = []  # [op id, wall s, cpu s, max rss KB, index of the reference before]
    speeds = []
    failures = []
    rounds = 0
    start = time.perf_counter()
    last_reference = -math.inf
    while rounds < setup.workload.min_rounds or time.perf_counter() - start < seconds:
        for op in setup.order(rounds):
            if time.perf_counter() - last_reference >= REFERENCE_INTERVAL_S:
                speeds.append(child.speed())
                last_reference = time.perf_counter()
            code, wall, cpu, rss = child.run(CHILD_MAIN, op.argv())
            stdout, stderr = child.output()
            golden = setup.golden.get(op.id) if setup.golden else None
            reason = setup.checks.gate(op, code, stdout, stderr, golden)
            if reason:
                failures.append(f"{op.id}: {reason}")
            samples.append((op.id, wall, cpu, rss, len(speeds) - 1))
        rounds += 1
    elapsed = time.perf_counter() - start
    speeds.append(child.speed())
    samples = [(op_id, wall, cpu, rss, (speeds[i] + speeds[i + 1]) / 2) for op_id, wall, cpu, rss, i in samples]
    return samples, failures, elapsed


def end_to_end_metrics(setup: SetUp, samples, failures, elapsed) -> tuple[dict, dict]:
    walls = [wall * speed * 1e3 for _, wall, _, _, speed in samples]
    n_min = len(setup.ops) * setup.workload.min_rounds
    pct = tail_percentile(n_min)
    tail = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
    values = {
        "verdict_ms.p50": statistics.median(walls),
        "verdict_ms.tail": tail,
        "verdict_cpu_ms.p50": statistics.median(cpu * speed * 1e3 for _, _, cpu, _, speed in samples),
        "reports_per_s": (len(samples) - len(failures)) / (sum(walls) / 1e3),
        "peak_rss_mb": max(s[3] for s in samples) / 1024,
        "setup_s": statistics.median(d * speed for d, speed in setup.durations),
    }
    raw_walls = [s[1] * 1e3 for s in samples]
    detail = {
        "tail_percentile": pct,
        "tail_samples_beyond": sum(w > tail for w in walls),
        "ops": len(samples),
        "rounds": len(samples) // len(setup.ops),
        "timed_s": elapsed,
        "failed_frac": len(failures) / len(samples),
        "speed_median": statistics.median(s[4] for s in samples),
        "unscaled": {
            "verdict_ms.p50": statistics.median(raw_walls),
            "verdict_ms.tail": statistics.quantiles(raw_walls, n=100, method="inclusive")[pct - 1],
            "verdict_cpu_ms.p50": statistics.median(s[2] * 1e3 for s in samples),
            "reports_per_s": (len(samples) - len(failures)) / elapsed,
            "setup_s": statistics.median(d for d, _ in setup.durations),
        },
        "op_median_ms": {
            op.id: statistics.median(w for w, s in zip(walls, samples) if s[0] == op.id) for op in setup.ops
        },
        "samples": [(op_id, wall * 1e3, cpu * 1e3, rss, speed) for op_id, wall, cpu, rss, speed in samples],
    }
    return values, detail


def import_metrics(child: Child) -> dict:
    """Cold interpreter start and package import, alternated."""
    interp, full = [], []
    for _ in range(IMPORT_REPEATS):
        interp.append(child.run("pass")[1])
        full.append(child.run("import lcslab.cli")[1])
    base = statistics.median(interp)
    return {"import.interp_ms": base * 1e3, "import.lcslab_ms": (statistics.median(full) - base) * 1e3}


def parse_args(argv):
    wants_help = {"-h", "--help"} & set(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="lcslab benchmark: cold CLI verdicts (--trace 0) or in-process per-layer trace (--trace 1).",
        epilog=help_epilog() if wants_help else None,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed (default {DEFAULT_SEED}, the golden seed)")
    parser.add_argument("--seconds", type=float, default=20, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record the default seed's report digests for the workload instead of measuring",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcslab" / "cli.py").is_file() or not (ORACLE_DIR / "numeric_oracle.py").is_file():
        print(f"error: {ROOT} holds no lcslab checkout (src/lcslab and tests/numeric_oracle.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ORACLE_DIR)]
    import lcslab

    workload = WORKLOADS[args.workload]
    folder = OUT / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    folder.mkdir(parents=True)
    try:
        env = child_env()
        child = Child(env, folder)
        setup = SetUp(workload, args.seed, child)
        try:
            for _ in range(SETUP_REPEATS):
                setup.once()
            setup.check_generator()
        except (setup.checks.GeneratorError, setup.checks.OracleError, RuntimeError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        if setup.backend != lcslab.KERNEL_BACKEND:
            print(f"error: children run the {setup.backend} backend, this process {lcslab.KERNEL_BACKEND}", file=sys.stderr)
            return 1
        if args.write_golden:
            return write_golden(setup, child)
        if args.seed == DEFAULT_SEED and set(setup.golden or ()) != {op.id for op in setup.ops}:
            print(f"error: {GOLDEN.name} does not cover the {workload.name} ops; see --write-golden", file=sys.stderr)
            return 1

        src_digest, compiled = source_digest()
        provenance = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "kernel_backend": setup.backend,
            "compiled_kernels": compiled,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "source_sha256": src_digest,
            "input_sha256": setup.input_digest,
            "golden_checked": setup.golden is not None,
            "child_env": env,
            "inherited_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        }
        if args.trace:
            from layers import TracedRun

            values = import_metrics(child)
            traced = TracedRun(setup.golden, setup.order, setup.backend)
            layer_values, spans = traced.run(args.seconds)
            values.update(layer_values)
            failures, attempted = traced.failures, traced.attempted
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
            spans_path = OUT / f"spans-{workload.name}-{args.seed}.json"
            spans_path.write_text(json.dumps(spans.as_json()))
            detail = {"spans": len(spans.records), "spans_file": spans_path.name}
            print(f"{workload.name}: {attempted} in-process ops traced, {len(spans.records)} spans in {spans_path.name}")
        else:
            samples, failures, elapsed = timed_loop(setup, args.seconds)
            attempted = len(samples)
            values, detail = end_to_end_metrics(setup, samples, failures, elapsed)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
            print(
                f"{workload.name}: {detail['ops']} ops in {detail['rounds']} rounds, "
                f"tail = p{detail['tail_percentile']} with {detail['tail_samples_beyond']} samples beyond, "
                f"failed_frac = {detail['failed_frac']} frac"
            )
        for line in failures[:10]:
            print(f"failed: {line}", file=sys.stderr)
        result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        record = {"provenance": provenance, "detail": detail, "failures": failures, **result}
        (OUT / f"result-{workload.name}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        print("provenance: " + json.dumps(provenance, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def write_golden(setup: SetUp, child: Child) -> int:
    """Digest every op's report at the default seed; refuses a failing op."""
    if setup.seed != DEFAULT_SEED:
        print("error: golden digests are recorded for the default seed only", file=sys.stderr)
        return 2
    digests = {}
    for op in setup.ops:
        code, _, _, _ = child.run(CHILD_MAIN, op.argv())
        stdout, stderr = child.output()
        reason = setup.checks.gate(op, code, stdout, stderr, None)
        if reason:
            print(f"error: {op.id}: {reason}", file=sys.stderr)
            return 1
        digests[op.id] = setup.checks.digest(stdout)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[setup.workload.name] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {setup.workload.name} to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
