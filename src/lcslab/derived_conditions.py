"""The derived conditions of a concircular structure: the action tensors
R(xi,X).M and C(xi,X).S with their nondegeneracy guards and the Ricci
classification their Einstein conclusions read, eta(M(X,Y)xi), and the
xi-direction identity of nabla R.  The ``derived-conditions`` command loads
this module and no other condition."""

from __future__ import annotations

from collections import namedtuple

from .einstein import classify
from .frame_geometry import FrameTensor, combo, dot
from .levi_civita import derivation
from .manifold import ManifoldData
from .symexpr import Expr


class XiDerivativeIdentity(namedtuple("XiDerivativeIdentity", "passed sign_flipped coefficient residual")):
    """Result of checking g((nabla_W R)(xi,Y)Z, xi) against
    -(2 alpha rho - beta){g(Y,Z) + eta(Y)eta(Z)} eta(W).

    passed, sign_flipped (bool); coefficient (Expr: 2 alpha rho - beta, for
    the variant that was reported); residual (FrameTensor).
    """

    __slots__ = ()


def nabla_r_xi_identity(data: ManifoldData, beta: Expr | None = None) -> XiDerivativeIdentity:
    """Check the xi-direction second-derivative identity on a verified
    structure; if it fails only under the adopted sign convention for beta,
    the sign-flipped alternative is checked and flagged."""
    st = data.structure

    def residual_for(beta_value: Expr):
        g = data.metric.g
        nabla_r = data.nabla_riemann
        coeff = 2 * st.alpha * st.rho - beta_value

        def entry(w, y, z):
            vec = combo(st.xi, lambda a: nabla_r.comp(w, a, y, z))
            lhs = dot(vec, st.eta)  # g(vec, xi), eta being xi lowered
            rhs = -coeff * (g[y][z] + st.eta[y] * st.eta[z]) * st.eta[w]
            return lhs - rhs

        return coeff, FrameTensor.build((0, 3), data.dim, entry)

    base_beta = st.beta if beta is None else beta
    coeff, res = residual_for(base_beta)
    if res.is_zero():
        return XiDerivativeIdentity(True, False, coeff, res)
    coeff_alt, res_alt = residual_for(-base_beta)
    if res_alt.is_zero():
        return XiDerivativeIdentity(True, True, coeff_alt, res_alt)
    return XiDerivativeIdentity(False, False, coeff, res)


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


def xi_action(tensor: FrameTensor, xi) -> list:
    """ops[x][y], the frame components of T(xi, E_x)E_y for a (1,3) tensor T:
    the operators T(xi, E_x) as the rows of an algebraic derivation."""
    n = tensor.dim
    return [[combo(xi, lambda a: tensor.comp(a, x, y)) for y in range(n)] for x in range(n)]


def derived_condition_residuals(data: ManifoldData) -> DerivedConditions:
    """R(xi,X) and C(xi,X) act on M and S as algebraic derivations (see
    ``levi_civita.derivation``), one direction per frame field E_x.  rxm is
    eta of each stored leaf of (R(xi,E_x).M)(E_u,E_v)E_w; M is antisymmetric
    in (U,V), so the action takes the half rule.  cxs is reported as
    S(C(xi,E_x)E_y, E_z) + S(E_y, C(xi,E_x)E_z), the negation of
    (C(xi,E_x).S)(E_y,E_z)."""
    st = data.structure
    n = data.dim
    chart = data.chart
    mproj = data.m_projective
    ric = data.stack.ricci

    r_xi_m = derivation(mproj, xi_action(data.stack.riemann13, st.xi))
    rxm = FrameTensor.build((0, 4), n, lambda *idx: st.eta_of(r_xi_m.comp(*idx)), r_xi_m.comps)
    c_xi_s = derivation(ric, xi_action(data.concircular, st.xi))
    cxs = c_xi_s._replace(comps={idx: -leaf for idx, leaf in c_xi_s.comps.items()})

    def mproj_xi_entry(i, j):
        return st.eta_of(combo(st.xi, lambda a: mproj.comp(i, j, a)))

    mproj_xi = FrameTensor.build((0, 2), n, mproj_xi_entry)

    guard_rxm = st.alpha * st.alpha - st.rho
    guard_cxs = chart.const(n * (n - 1)) * guard_rxm + 1
    # an Einstein conclusion is drawn where its action vanishes and its guard
    # does not; both read the same S, so it is classified once, and only then
    drawn = [action.is_zero() and not guard.is_zero for action, guard in ((rxm, guard_rxm), (cxs, guard_cxs))]
    verdict = classify(ric, data.metric, st.eta) if any(drawn) else None
    return DerivedConditions(rxm, cxs, guard_rxm, guard_cxs, mproj_xi, *(verdict if d else None for d in drawn))
