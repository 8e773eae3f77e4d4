"""Correctness checks: the per-op gate, the numeric oracle and the
generator self-check.

The gate runs on every timed op.  The oracle and the self-check run during
set-up, in-process, on every generated definition, so a fresh seed is
verified without a golden digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from workloads import Op


class GeneratorError(Exception):
    """A generated input is not what its workload promises."""


class OracleError(Exception):
    """The engine and the independent numeric twin disagree."""


def digest(report_bytes: bytes) -> str:
    return hashlib.sha256(report_bytes).hexdigest()


def gate(op: Op, exit_code: int, stdout: bytes, stderr: bytes, golden: str | None) -> str | None:
    """None when the op's outcome is correct, else the first reason it is not."""
    if exit_code != op.expected_exit:
        return f"exit code {exit_code}, expected {op.expected_exit}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    try:
        fails = json.loads(stdout)["summary"]["fail"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a JSON report"
    if fails != op.expected_fail:
        return f"summary.fail {fails}, expected {op.expected_fail}"
    if golden is not None and digest(stdout) != golden:
        return "report differs from the golden digest"
    return None


def oracle(data, twin_class, rng: random.Random) -> None:
    """Compare the engine's connection, Ricci tensor and scalar curvature
    with the numeric twin at a seeded rational point where both are regular."""
    from lcslab.symexpr import PoleError

    n = data.dim
    gamma = data.connection.gamma
    ricci = data.stack.ricci
    for _ in range(100):
        point = {v.name: Fraction(rng.randint(1, 29), rng.randint(1, 7)) for v in data.chart.coords}
        try:
            engine_gamma = [[[e.eval(point) for e in vec] for vec in row] for row in gamma]
            engine_ricci = [[ricci.comp(i, j).eval(point) for j in range(n)] for i in range(n)]
            engine_scalar = data.stack.scalar.eval(point)
            twin = twin_class(data, point)
            twin_gamma = twin.gamma()
            twin_ricci = twin.ricci(twin.riemann())
        except (PoleError, ZeroDivisionError):
            continue  # the point is singular for the frame, the metric or a denominator
        break
    else:
        raise OracleError(f"{data.name}: no regular rational point found")
    where = f"at {', '.join(f'{k}={v}' for k, v in point.items())}"
    if engine_gamma != twin_gamma:
        raise OracleError(f"{data.name}: connection differs from the numeric twin {where}")
    if engine_ricci != twin_ricci:
        raise OracleError(f"{data.name}: Ricci tensor differs from the numeric twin {where}")
    if engine_scalar != twin.scalar(twin_ricci):
        raise OracleError(f"{data.name}: scalar curvature differs from the numeric twin {where}")


def self_check(cli, data, command: str) -> None:
    """The generated definition must pass `command` with no failed entry:
    check-lcs for the lcsN families, all seven curvature self-checks for
    dense.  Otherwise the generator is wrong, not the engine."""
    report = cli.run(command, data, {})
    fails = [e.check_id for e in report.entries if e.status == "fail"]
    if fails:
        raise GeneratorError(f"{data.name}: {command} fails {', '.join(fails)}")
    if command == "curvature":
        passed = [e for e in report.entries if e.check_id.startswith("self-check.") and e.status == "pass"]
        if len(passed) != 7:
            raise GeneratorError(f"{data.name}: {len(passed)} of 7 curvature self-checks passed")
