"""The conformal soliton condition along xi: the residual of
L_xi g + 2 S - [2 lambda - (p + 2/n)] g, the two derivations of lambda
side by side, and the eta-Einstein shape of S that k = lambda - (p/2 + 1/n)
- alpha gives.  Both residuals are relations lhs = u p + v q, formed by
``frame_geometry.residual`` on their support: L_xi g - (-2) S - c g and
S - k g - (-alpha) eta x eta.  The ``soliton`` command loads this module
and no other condition.  Its rational constants (1/2, (n+1)/n, 2/n, ...)
are built with ``Expr.ratio``, so it imports no ``fractions``."""

from __future__ import annotations

from .frame_geometry import FrameTensor, residual
from .levi_civita import lie_derivative_metric
from .manifold import ManifoldData
from .symexpr import Expr


def soliton_lambda(alpha: Expr, p: Expr, n: int) -> tuple[Expr, Expr]:
    """The printed soliton scalar lambda = p/2 + ((n+1)/n) alpha, together
    with the independently re-derived trace value p/2 + ((n-1)/n) alpha.

    The second comes from tracing S = k g - alpha eta x eta with
    g(xi, xi) = -1 and the flow constraint r = -1; they differ by 2 alpha/n,
    so both are always returned and reported side by side.
    """
    vs = p.vars
    half_p = p * Expr.ratio(vs, 1, 2)
    printed = half_p + alpha * Expr.ratio(vs, n + 1, n)
    traced = half_p + alpha * Expr.ratio(vs, n - 1, n)
    return printed, traced


def soliton_k(lam: Expr, p: Expr, alpha: Expr, n: int) -> Expr:
    """k = lambda - (p/2 + 1/n) - alpha, the coefficient of g in the
    eta-Einstein shape S = k g - alpha eta x eta."""
    vs = p.vars
    return lam - (p * Expr.ratio(vs, 1, 2) + Expr.ratio(vs, 1, n)) - alpha


def soliton_residual(data: ManifoldData, lam: Expr, p: Expr, k: Expr | None = None):
    """(residual, eta_einstein_residual): the exact residual of
    L_xi g + 2 S - [2 lambda - (p + 2/n)] g, xi the frame field of index
    ``data.xi_index``, which is zero exactly on a conformal soliton; and,
    with ``k`` given (``soliton_k``, which takes the structure's alpha), the
    residual of the eta-Einstein shape S = k g - alpha eta x eta, else None.
    """
    n = data.dim
    g = data.metric.g
    lie = lie_derivative_metric(data.frame, data.metric, data.brackets, data.xi_index)
    ric = data.stack.ricci
    g_tensor = FrameTensor.build((0, 2), n, lambda i, j: g[i][j])
    factor = 2 * lam - (p + Expr.ratio(p.vars, 2, n))
    res = residual(lie, ric, g_tensor, data.chart.const(-2), factor)

    eta_res = None
    if k is not None:
        st = data.structure
        eta2 = FrameTensor.build((0, 2), n, lambda i, j: st.eta[i] * st.eta[j])
        eta_res = residual(ric, g_tensor, eta2, k, -st.alpha)

    return res, eta_res
