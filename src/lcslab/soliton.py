"""The conformal soliton condition along xi: the residual of
L_V g + 2 S - [2 lambda - (p + 2/n)] g, the two derivations of lambda
side by side, and the eta-Einstein shape of S that k = lambda - (p/2 + 1/n)
- alpha gives.  The ``soliton`` command loads this module and no other
condition.  Its rational constants (1/2, (n+1)/n, 2/n, ...) are built with
``Expr.ratio``, so it imports no ``fractions``."""

from __future__ import annotations

from typing import NamedTuple

from .frame_geometry import FrameTensor
from .lcs_structure import NotLcsError
from .manifold import ManifoldData
from .symexpr import Expr


class SolitonParams(NamedTuple):
    """Soliton scalar lambda, conformal pressure p, and the derived
    k = lambda - (p/2 + 1/n) - alpha (None when no alpha is available)."""

    lam: Expr
    p: Expr
    k: Expr | None = None

    @classmethod
    def derive(cls, lam: Expr, p: Expr, alpha: Expr, n: int) -> "SolitonParams":
        vs = p.vars
        k = lam - (p * Expr.ratio(vs, 1, 2) + Expr.ratio(vs, 1, n)) - alpha
        return cls(lam, p, k)


def soliton_lambda(alpha: Expr, p: Expr, n: int) -> tuple[Expr, Expr]:
    """The printed soliton scalar lambda = p/2 + ((n+1)/n) alpha, together
    with the independently re-derived trace value p/2 + ((n-1)/n) alpha.

    The second comes from tracing S = k g - alpha eta x eta with
    g(xi, xi) = -1 and the flow constraint r = -1; the two disagree, so
    both are always returned and reported side by side.
    """
    vs = p.vars
    half_p = p * Expr.ratio(vs, 1, 2)
    printed = half_p + alpha * Expr.ratio(vs, n + 1, n)
    traced = half_p + alpha * Expr.ratio(vs, n - 1, n)
    return printed, traced


class SolitonCheck(NamedTuple):
    residual: FrameTensor
    is_soliton: bool
    eta_einstein_residual: FrameTensor | None


def soliton_residual(data: ManifoldData, v, params: SolitonParams) -> SolitonCheck:
    """Exact residual of  L_V g + 2 S - [2 lambda - (p + 2/n)] g.

    With V = xi on a manifold carrying a verified structure, the residual
    of the eta-Einstein shape S = k g - alpha eta x eta is also reported.
    """
    n = data.dim
    g = data.metric.g
    lie = data.lie_metric(v)
    ric = data.stack.ricci
    factor = 2 * params.lam - (params.p + Expr.ratio(params.p.vars, 2, n))

    def entry(i, j):
        return lie.comp(i, j) + 2 * ric.comp(i, j) - factor * g[i][j]

    res = FrameTensor.build((0, 2), n, entry)

    eta_res = None
    if tuple(v) == data.xi_components() and params.k is not None:
        try:
            st = data.structure
        except NotLcsError:
            pass
        else:

            def eta_entry(i, j):
                return ric.comp(i, j) - params.k * g[i][j] + st.alpha * st.eta[i] * st.eta[j]

            eta_res = FrameTensor.build((0, 2), n, eta_entry)

    return SolitonCheck(res, res.is_zero(), eta_res)
