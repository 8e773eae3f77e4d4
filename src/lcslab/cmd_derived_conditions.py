"""The ``derived-conditions`` report: the action tensors R(xi,X).M and
C(xi,X).S, their guards, the gated Einstein conclusions and the
xi-derivative identity."""

from __future__ import annotations

from . import cli
from .cli import FAIL, INFO, PASS, Report, residual_excerpt
from .einstein import EinsteinKind
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
        PASS if out.mproj_xi_residual.is_zero() else FAIL,
        "eta(M(X,Y)xi) = 0",
        residual=residual_excerpt(out.mproj_xi_residual),
    )
    report.add(
        "rxm",
        INFO,
        "R(xi,X) acting on the M-projective tensor",
        engine="0" if out.rxm_zero else "nonzero",
        residual=residual_excerpt(out.rxm),
    )
    report.add(
        "cxs",
        INFO,
        "C(xi,X) acting on the Ricci tensor",
        engine="0" if out.cxs_zero else "nonzero",
        residual=residual_excerpt(out.cxs),
    )
    report.add("guard.rxm", INFO, "guard alpha^2 - rho", engine=str(out.guard_rxm))
    report.add("guard.cxs", INFO, "guard n(n-1)(alpha^2 - rho) + 1", engine=str(out.guard_cxs))
    for label, verdict in (("rxm", out.einstein_from_rxm), ("cxs", out.einstein_from_cxs)):
        if verdict is None:
            report.add(f"einstein.{label}", INFO, "Einstein conclusion not gated", note="hypothesis or guard not met")
            continue
        report.add(
            f"einstein.{label}",
            PASS if verdict.kind is EinsteinKind.EINSTEIN else FAIL,
            "vanishing action + nonzero guard imply an Einstein manifold",
            engine=verdict.kind.value + (f" with a = {verdict.a}" if verdict.a is not None else ""),
        )
    ident = cli.nabla_r_xi_identity(data)
    report.add(
        "xi-derivative-identity",
        PASS if ident.passed else FAIL,
        "g((nabla_W R)(xi,Y)Z, xi) = -(2 alpha rho - beta){g(Y,Z) + eta(Y)eta(Z)} eta(W)",
        engine=f"2 alpha rho - beta = {ident.coefficient}",
        residual=residual_excerpt(ident.residual),
        note="passes under the sign-flipped beta convention" if ident.sign_flipped else None,
    )
