"""The ``fit KIND`` report: exact recurrence 1-forms, or the first row that
has no solution.  The fit checks its forms against every residual
component before it returns them, so the ``roundtrip`` entry reports that
check and builds no second residual.  The ``duals`` entry raises the
fitted forms to their metric duals where it reports them."""

from __future__ import annotations

from . import cli
from .cli import INFO, PASS, Report, format_vector
from .conditions import NoSolution
from .manifold import ManifoldData


def run(data: ManifoldData, report: Report, options: dict) -> None:
    kind = options["kind"]
    result = cli.recurrence_fit(data, kind)
    if isinstance(result, NoSolution):
        report.add(
            f"fit.{kind}",
            INFO,
            f"{kind} fit has no exact solution",
            note=result.describe(),
        )
        return
    for i, (a, b) in enumerate(zip(result.a, result.b)):
        report.add(f"fit.{kind}.{i + 1}", INFO, f"A(E{i + 1}), B(E{i + 1})", engine=f"{a}, {b}")
    rho1, rho2 = (data.metric.raise_form(form) for form in (result.a, result.b))
    report.add(
        f"fit.{kind}.duals", INFO, "metric duals rho1, rho2", engine=f"{format_vector(rho1)}; {format_vector(rho2)}"
    )
    report.add(f"fit.{kind}.roundtrip", PASS, "fitted forms reproduce the condition exactly")
