"""The ``soliton`` report: the two lambda derivations side by side and the
conformal soliton residual."""

from __future__ import annotations

from . import cli
from .cli import FAIL, INFO, LoadError, Report, residual_excerpt
from .lcs_structure import NotLcsError
from .manifold import ManifoldData
from .soliton import SolitonParams, soliton_lambda
from .symexpr import ExprError


def run(data: ManifoldData, report: Report, options: dict) -> None:
    p_text, lambda_text = options.get("p", "0"), options.get("lam")
    chart = data.chart
    try:
        p = chart.parse(p_text)
    except ExprError as exc:
        raise LoadError(f"bad --p expression: {exc}") from None

    alpha = None
    try:
        alpha = data.structure.alpha
    except NotLcsError:
        pass

    lam_printed = lam_traced = None
    if alpha is not None:
        lam_printed, lam_traced = soliton_lambda(alpha, p, data.dim)
        report.add("lambda.printed", INFO, "lambda = p/2 + ((n+1)/n) alpha", engine=str(lam_printed))
        report.add("lambda.traced", INFO, "lambda from the trace with g(xi,xi) = -1 and r = -1", engine=str(lam_traced))
        if lam_printed != lam_traced:
            report.add(
                "lambda.difference",
                INFO,
                "the two lambda derivations disagree",
                engine=str(lam_printed - lam_traced),
                note="both are reported; neither is preferred silently",
            )
    if lambda_text is not None:
        try:
            lam = chart.parse(lambda_text)
        except ExprError as exc:
            raise LoadError(f"bad --lambda expression: {exc}") from None
    elif lam_printed is not None:
        lam = lam_printed
    else:
        report.add("soliton", FAIL, "soliton residual", note="no structure alpha available; pass --lambda explicitly")
        return

    if not lam.is_constant:
        report.add(
            "lambda.constancy",
            INFO,
            "lambda is not constant",
            engine=str(lam),
            note="treated as a scalar field; the derivations presume a scalar",
        )
    if alpha is not None:
        params = SolitonParams.derive(lam, p, alpha, data.dim)
        report.add("soliton.k", INFO, "k = lambda - (p/2 + 1/n) - alpha", engine=str(params.k))
    else:
        params = SolitonParams(lam, p)
    check = cli.soliton_residual(data, data.xi_components(), params)
    report.add(
        "soliton.residual",
        INFO,
        "L_xi g + 2S - [2 lambda - (p + 2/n)] g",
        engine="0 (conformal soliton)" if check.is_soliton else "nonzero (not a conformal soliton)",
        residual=residual_excerpt(check.residual),
    )
    if check.eta_einstein_residual is not None:
        zero = check.eta_einstein_residual.is_zero()
        report.add(
            "soliton.eta-einstein",
            INFO,
            "S - k g + alpha eta x eta",
            engine="0" if zero else "nonzero",
            residual=residual_excerpt(check.eta_einstein_residual),
        )
