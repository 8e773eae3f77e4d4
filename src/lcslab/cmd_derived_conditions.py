"""The ``derived-conditions`` report: the action tensors R(xi,X).M and
C(xi,X).S, their guards, the gated Einstein conclusions and the
xi-derivative identity."""

from __future__ import annotations

from . import cli
from .cli import FAIL, INFO, PASS, Report, residual_excerpt
from .lcs_structure import NotLcsError
from .manifold import ManifoldData


def run(data: ManifoldData, report: Report, options: dict) -> None:
    try:
        out = cli.derived_condition_residuals(data)
    except NotLcsError as exc:
        report.add("derived-conditions", FAIL, "derived conditions", note=f"needs a concircular structure: {exc}")
        return
    report.add(
        "mproj-xi",
        PASS if out.mproj_xi_residual.is_zero else FAIL,
        "eta(M(X,Y)xi) = 0",
        residual=residual_excerpt(out.mproj_xi_residual),
    )
    report.add(
        "rxm",
        INFO,
        "R(xi,X) acting on the M-projective tensor",
        engine="0" if out.rxm.is_zero else "nonzero",
        residual=residual_excerpt(out.rxm),
    )
    report.add(
        "cxs",
        INFO,
        "C(xi,X) acting on the Ricci tensor",
        engine="0" if out.cxs.is_zero else "nonzero",
        residual=residual_excerpt(out.cxs),
    )
    report.add("guard.rxm", INFO, "guard alpha^2 - rho", engine=str(out.guard_rxm))
    report.add("guard.cxs", INFO, "guard n(n-1)(alpha^2 - rho) + 1", engine=str(out.guard_cxs))
    # each Einstein conclusion, its hypothesis (the action vanishes) and the classification it
    # reads, None where the action is nonzero or its guard zero
    for label, action, verdict in (("rxm", out.rxm, out.einstein_from_rxm), ("cxs", out.cxs, out.einstein_from_cxs)):
        kind, a, _ = verdict or (None, None, None)
        cli.add_gated(
            report,
            f"einstein.{label}",
            "vanishing action + nonzero guard imply an Einstein manifold",
            action.is_zero,
            "hypothesis or guard not met" if verdict is None else None,
            kind == "Einstein",
            kind and kind + (f" with a = {a}" if a is not None else ""),
            "Einstein conclusion not gated",
        )
    coefficient, residual = cli.nabla_r_xi_identity(data)
    report.add(
        "xi-derivative-identity",
        PASS if residual.is_zero else FAIL,
        "g((nabla_W R)(xi,Y)Z, xi) = -(2 alpha rho - beta){g(Y,Z) + eta(Y)eta(Z)} eta(W)",
        engine=f"2 alpha rho - beta = {coefficient}",
        residual=residual_excerpt(residual),
    )
