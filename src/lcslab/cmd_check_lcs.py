"""The ``check-lcs`` report: the structure, its axioms and the Ricci shape."""

from __future__ import annotations

from . import cli
from .cli import FAIL, INFO, PASS, Report
from .einstein import EinsteinKind, classify
from .lcs_structure import NotLcsError
from .manifold import ManifoldData


def run(data: ManifoldData, report: Report, options: dict) -> None:
    try:
        st = cli.derive_structure(data, data.xi_index)
    except NotLcsError as exc:
        report.add("structure", FAIL, "structure extraction", note=str(exc))
        return
    report.add("structure.alpha", INFO, "alpha", engine=str(st.alpha))
    report.add("structure.rho", INFO, "rho = -xi(alpha)", engine=str(st.rho))
    report.add("structure.beta", INFO, "beta from d(rho) = beta eta", engine=str(st.beta))
    k2 = st.alpha * st.alpha - st.rho
    report.add("structure.alpha2-rho", INFO, "alpha^2 - rho", engine=str(k2))
    for check in cli.verify_axioms(data, st):
        report.add(
            f"axiom.{check.axiom}",
            PASS if check.passed else FAIL,
            check.description,
            note=check.detail or None,
        )
    verdict = classify(data.stack.ricci, data.metric, st.eta)
    if verdict.kind is EinsteinKind.NEITHER:
        report.add("classification", INFO, "Ricci shape", engine="neither Einstein nor eta-Einstein")
    else:
        report.add(
            "classification",
            INFO,
            "Ricci shape S = a g + b eta x eta",
            engine=f"{verdict.kind.value} with a = {verdict.a}, b = {verdict.b}",
        )
