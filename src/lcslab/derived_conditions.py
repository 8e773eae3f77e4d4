"""The derived conditions of a concircular structure: the action tensors
R(xi,X).M and C(xi,X).S with their nondegeneracy guards and the Ricci
classification their Einstein conclusions read, eta(M(X,Y)xi), and the
xi-direction identity of nabla R.  The ``derived-conditions`` command loads
this module and no other condition.

xi is the frame field E_k, k = ``data.xi_index`` (``derive_structure`` sets
it so), so each contraction with xi reads slot k of a tensor, and the
identity's nabla R is its xi-slice: the leaves (w,k,y,z) and (w,y,k,z),
the only ones it reads."""

from __future__ import annotations

from collections import namedtuple

from .einstein import classify
from .frame_geometry import FrameTensor
from .levi_civita import cov_deriv_tensor, derivation
from .manifold import ManifoldData
from .symexpr import Expr


def xi_slice(data: ManifoldData) -> FrameTensor:
    """The leaves (w,k,y,z) and (w,y,k,z) of nabla R, k = ``data.xi_index``,
    each the same sum as in the full tensor."""
    k = data.xi_index
    return cov_deriv_tensor(data.connection, data.stack.riemann13, lambda w, x, y: k in (x, y))


def nabla_r_xi_identity(data: ManifoldData, beta: Expr | None = None) -> tuple[Expr, FrameTensor]:
    """(coefficient, residual): 2 alpha rho - beta, and the residual of
    g((nabla_W R)(xi,Y)Z, xi) = -(2 alpha rho - beta){g(Y,Z) + eta(Y)eta(Z)} eta(W)
    on a verified structure, with ``beta`` (default: the structure's,
    d(rho) = beta eta).  The identity holds exactly when the residual is zero.

    It is a theorem of the structure, so with the structure's beta it fails
    only on a fault in the engine.  Proof: on an (LCS)_n,
    nabla xi = alpha(I + eta (x) xi) and d(alpha) = rho eta give
    R(X,Y)xi = c{eta(Y)X - eta(X)Y} with c = alpha^2 - rho, so, as
    eta(xi) = -1,

        F(Y,Z) = g(R(xi,Y)Z, xi) = -c{g(Y,Z) + eta(Y)eta(Z)}.

    Differentiate F along W in two ways.  Through R, (nabla_W F)(Y,Z) is
    g((nabla_W R)(xi,Y)Z, xi) + g(R(nabla_W xi, Y)Z, xi)
    + g(R(xi,Y)Z, nabla_W xi), and with nabla_W xi = alpha(W + eta(W)xi),
    the pair symmetry of R and R(X,Y)xi above, the last two terms are

        -alpha c{eta(Y)g(W,Z) + eta(Z)g(W,Y) + 2 eta(W)eta(Y)eta(Z)}.

    Through the closed form, (nabla_W F)(Y,Z) is
    -dc(W){g(Y,Z) + eta(Y)eta(Z)} plus the terms of
    (nabla_W eta)(Y) = alpha{g(W,Y) + eta(W)eta(Y)}, which are the same
    expression.  So g((nabla_W R)(xi,Y)Z, xi) = -dc(W){g(Y,Z) + eta(Y)eta(Z)},
    and dc = 2 alpha d(alpha) - d(rho) = (2 alpha rho - beta) eta.  A beta
    other than the structure's (the tests pass one) leaves a nonzero
    residual."""
    st = data.structure
    g = data.metric.g
    k = data.xi_index
    nabla_r = xi_slice(data)
    coeff = 2 * st.alpha * st.rho - (st.beta if beta is None else beta)

    def entry(w, y, z):
        lhs = st.eta_of(nabla_r.comp(w, k, y, z))  # g((nabla_W R)(xi,Y)Z, xi), eta being xi lowered
        rhs = -coeff * (g[y][z] + st.eta[y] * st.eta[z]) * st.eta[w]
        return lhs - rhs

    return coeff, FrameTensor.build((0, 3), data.dim, entry)


class DerivedConditions(
    namedtuple("DerivedConditions", "rxm cxs guard_rxm guard_cxs mproj_xi_residual einstein_from_rxm einstein_from_cxs")
):
    """The action tensors R(xi,X).M and C(xi,X).S with their nondegeneracy
    guards and the Ricci classification each Einstein conclusion reads.

    rxm, cxs (FrameTensor); guard_rxm (Expr: alpha^2 - rho) and guard_cxs
    (Expr: n(n-1)(alpha^2 - rho) + 1); mproj_xi_residual (FrameTensor:
    eta(M(X,Y)xi), identically zero on LCS); einstein_from_rxm,
    einstein_from_cxs (ClassifierVerdict, or None where the action is
    nonzero or its guard zero).
    """

    __slots__ = ()


def xi_action(tensor: FrameTensor, k: int) -> list:
    """ops[x][y], the frame components of T(E_k, E_x)E_y for a (1,3) tensor T:
    the operators T(xi, E_x) as the rows of an algebraic derivation, xi = E_k."""
    n = tensor.dim
    return [[tensor.comp(k, x, y) for y in range(n)] for x in range(n)]


def derived_condition_residuals(data: ManifoldData) -> DerivedConditions:
    """R(xi,X) and C(xi,X) act on M and S as algebraic derivations (see
    ``levi_civita.derivation``), one direction per frame field E_x.  rxm is
    eta of each stored leaf of (R(xi,E_x).M)(E_u,E_v)E_w; M is antisymmetric
    in (U,V), so the action takes the half rule.  cxs is reported as
    S(C(xi,E_x)E_y, E_z) + S(E_y, C(xi,E_x)E_z), the negation of
    (C(xi,E_x).S)(E_y,E_z)."""
    st = data.structure
    n = data.dim
    k = data.xi_index
    chart = data.chart
    mproj = data.m_projective
    ric = data.stack.ricci

    r_xi_m = derivation(mproj, xi_action(data.stack.riemann13, k))
    rxm = FrameTensor.build((0, 4), n, lambda *idx: st.eta_of(r_xi_m.comp(*idx)), r_xi_m.comps)
    c_xi_s = derivation(ric, xi_action(data.concircular, k))
    cxs = c_xi_s._replace(comps={idx: -leaf for idx, leaf in c_xi_s.comps.items()})
    mproj_xi = FrameTensor.build((0, 2), n, lambda i, j: st.eta_of(mproj.comp(i, j, k)))

    guard_rxm = st.alpha * st.alpha - st.rho
    guard_cxs = chart.const(n * (n - 1)) * guard_rxm + 1
    # an Einstein conclusion is drawn where its action vanishes and its guard
    # does not; both read the same S, so it is classified once, and only then
    drawn = [action.is_zero and not guard.is_zero for action, guard in ((rxm, guard_rxm), (cxs, guard_cxs))]
    verdict = classify(ric, data.metric, st.eta) if any(drawn) else None
    return DerivedConditions(rxm, cxs, guard_rxm, guard_cxs, mproj_xi, *(verdict if d else None for d in drawn))
