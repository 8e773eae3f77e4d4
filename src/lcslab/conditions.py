"""Residual checkers and exact fitters for the recurrence and soliton
conditions, plus the derived-condition tensors.

Each recurrence condition is stated once, in ``_recurrence_terms``, as
lhs = A(E_w) p + B(E_w) q; ``recurrence_residual`` builds lhs - A p - B q
from it and ``recurrence_fit`` reads its leaves as the rows of the linear
system in A(E_w), B(E_w).  The derived conditions, the xi-identity and the
soliton residual are each stated in the one function that checks them.  The
actions R(xi,X).M and C(xi,X).S are algebraic derivations, and L_V g a Lie
derivative: each goes through ``levi_civita.derivation``, the one routine
that forms a derivation's slot sums, and is evaluated on its support.

Gate discipline: a derived consequence is asserted only when its hypothesis
residual is exactly zero and its nondegeneracy guard is nonzero in the
function field; otherwise the same quantities are reported informationally.
Every assertion made here is therefore literally checkable.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .frame_geometry import FrameTensor, combo, dot, vec_scale, vec_sub
from .lcs_structure import ClassifierVerdict, NotLcsError, classify, solve_two_unknowns
from .levi_civita import derivation
from .manifold import ManifoldData
from .symexpr import Expr


class RecurrenceKind(Enum):
    SGR = "SGR"  # semi-generalized recurrent: nabla R = A x R + B x (g-term)
    SGRR = "SGRR"  # Ricci variant: nabla S = A x S + n B x g
    SGPR = "SGPR"  # phi-recurrent variant: phi^2(nabla R) = A x R + B x (g-term)


class RecurrenceForms(NamedTuple):
    """1-forms A, B on the frame plus their metric-dual vectors."""

    a: tuple[Expr, ...]
    b: tuple[Expr, ...]
    rho1: tuple[Expr, ...]
    rho2: tuple[Expr, ...]

    @classmethod
    def from_covectors(cls, data: ManifoldData, a, b) -> "RecurrenceForms":
        return cls(tuple(a), tuple(b), data.metric.raise_form(a), data.metric.raise_form(b))


class NoSolution(NamedTuple):
    """Witness that a recurrence fit is inconsistent."""

    kind: RecurrenceKind
    direction: int
    component: tuple[int, ...]
    needed: Expr
    detail: str

    def describe(self) -> str:
        idx = ",".join(str(i + 1) for i in self.component)
        return f"direction E{self.direction + 1}, component ({idx}): {self.detail}"


def _recurrence_terms(data: ManifoldData, kind: RecurrenceKind):
    """The condition of ``kind``, read as  lhs(w, *idx) = A(E_w) p(*idx) + B(E_w) q(*idx),
    as the residual's valence and the three leaf functions.

    SGR and SGPR have vector leaves at (x, y, z): lhs is (nabla_w R)(E_x,E_y)E_z,
    phi^2 of it for SGPR; p = R(E_x,E_y)E_z and q = g(E_y,E_z) E_x.  SGRR has
    scalar leaves at (i, j): lhs is (nabla_w S)(E_i,E_j), p = S(E_i,E_j) and
    q = n g(E_i,E_j).
    """
    n = data.dim
    g = data.metric.g
    if kind is RecurrenceKind.SGRR:
        n_const = data.chart.const(n)
        return (0, 3), data.nabla_ricci.comp, data.stack.ricci.comp, lambda i, j: n_const * g[i][j]
    lhs = nabla_r = data.nabla_riemann.comp
    if kind is RecurrenceKind.SGPR:
        st = data.structure

        def lhs(w, x, y, z):
            return st.phi_of(st.phi_of(nabla_r(w, x, y, z)))

    zeros = [data.chart.zero()] * n

    def q(x, y, z):
        vec = zeros.copy()
        vec[x] = g[y][z]
        return vec

    return (1, 4), lhs, data.stack.riemann13.comp, q


def recurrence_residual(data: ManifoldData, kind: RecurrenceKind, forms: RecurrenceForms):
    """Exact residual tensor lhs - A p - B q of the recurrence condition; flag true iff zero."""
    valence, lhs, p, q = _recurrence_terms(data, kind)
    a, b = forms.a, forms.b
    if valence[0]:

        def entry(w, *idx):
            return vec_sub(vec_sub(lhs(w, *idx), vec_scale(a[w], p(*idx))), vec_scale(b[w], q(*idx)))

    else:

        def entry(w, *idx):
            return lhs(w, *idx) - a[w] * p(*idx) - b[w] * q(*idx)

    res = FrameTensor.build(valence, data.dim, entry)
    return res, res.is_zero()


def recurrence_fit(data: ManifoldData, kind: RecurrenceKind):
    """Fit the 1-forms A, B direction by direction from the overdetermined
    exact linear system; returns RecurrenceForms or a NoSolution witness.

    The rows of direction w are the leaf components of the condition, in
    ``itertools.product`` order of the leaf index, then of a vector leaf's
    component u.  Directions where the system is underdetermined get
    A(E_i) = B(E_i) = 0.
    """
    if kind not in (RecurrenceKind.SGR, RecurrenceKind.SGRR):
        raise ValueError(f"fit supports SGR and SGRR, not {kind}")
    n = data.dim
    (r, s), lhs, p, q = _recurrence_terms(data, kind)
    leaves = list(itertools.product(range(n), repeat=s - 1))
    index = [idx + (u,) for idx in leaves for u in range(n)] if r else leaves
    flat = itertools.chain.from_iterable if r else iter  # the leaves' components, in order
    ps = list(flat(p(*idx) for idx in leaves))
    qs = list(flat(q(*idx) for idx in leaves))
    solutions = []
    for w in range(n):
        rows = list(zip(ps, qs, flat(lhs(w, *idx) for idx in leaves)))
        sol, witness = solve_two_unknowns(rows)
        if sol is None:
            coef_a, coef_b, rhs = rows[witness]
            if coef_a.is_zero and coef_b.is_zero:
                detail = f"the condition forces 0 = {rhs}"
            else:
                detail = "no values of the forms satisfy this component together with the others"
            return NoSolution(kind, w, index[witness], rhs, detail)
        solutions.append(sol)
    a_comps, b_comps = zip(*solutions)
    return RecurrenceForms.from_covectors(data, a_comps, b_comps)


class SgrPredictions(NamedTuple):
    """Scalar-curvature consequences of the recurrence hypothesis.  They are
    assertions only where the SGR residual of the same forms vanishes."""

    r_engine: Expr
    r_predicted: Expr | None
    r_note: str
    r_matches: bool | None
    opposition: tuple[Expr, ...] | None
    opposition_note: str
    opposition_zero: bool | None


def sgr_predictions(data: ManifoldData, forms: RecurrenceForms) -> SgrPredictions:
    """Evaluate r = {2(n-1)(alpha^2-rho) eta(rho1) - (n^2+2) B(xi)} / A(xi)
    and the opposition relation A + (n^2/r) B = 0."""
    n = data.dim
    chart = data.chart
    st = data.structure
    r_engine = data.stack.scalar

    a_xi = forms.a[data.xi_index]
    k2 = st.alpha * st.alpha - st.rho
    if a_xi.is_zero:
        r_pred = None
        r_note = "A(xi) is identically zero; the prediction formula divides by it"
        r_matches = None
    else:
        eta_rho1 = st.eta_of(forms.rho1)
        r_pred = (chart.const(2 * (n - 1)) * k2 * eta_rho1 - chart.const(n * n + 2) * forms.b[data.xi_index]) / a_xi
        r_note = ""
        r_matches = (r_pred - r_engine).is_zero

    if not r_engine.is_constant:
        opposition = None
        opposition_note = "scalar curvature is not constant; the opposition relation needs a nonzero constant"
        opposition_zero = None
    elif r_engine.is_zero:
        opposition = None
        opposition_note = "scalar curvature is zero; the opposition relation divides by it"
        opposition_zero = None
    else:
        factor = chart.const(n * n) / r_engine
        opposition = tuple(forms.a[i] + factor * forms.b[i] for i in range(n))
        opposition_note = ""
        opposition_zero = all(e.is_zero for e in opposition)

    return SgrPredictions(
        r_engine=r_engine,
        r_predicted=r_pred,
        r_note=r_note,
        r_matches=r_matches,
        opposition=opposition,
        opposition_note=opposition_note,
        opposition_zero=opposition_zero,
    )


class XiDerivativeIdentity(NamedTuple):
    """Result of checking g((nabla_W R)(xi,Y)Z, xi) against
    -(2 alpha rho - beta){g(Y,Z) + eta(Y)eta(Z)} eta(W)."""

    passed: bool
    sign_flipped: bool
    coefficient: Expr  # 2 alpha rho - beta, for the variant that was reported
    residual: FrameTensor


def nabla_r_xi_identity(data: ManifoldData, beta: Expr | None = None) -> XiDerivativeIdentity:
    """Check the xi-direction second-derivative identity on a verified
    structure; if it fails only under the adopted sign convention for beta,
    the sign-flipped alternative is checked and flagged."""
    st = data.structure

    def residual_for(beta_value: Expr):
        g = data.metric.g
        nabla_r = data.nabla_riemann
        coeff = 2 * st.alpha * st.rho - beta_value
        xi_lowered = data.metric.lower(st.xi)  # g(vec, xi) = dot(vec, xi_lowered)

        def entry(w, y, z):
            vec = combo(st.xi, lambda a: nabla_r.comp(w, a, y, z))
            lhs = dot(vec, xi_lowered)
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


class SolitonParams(NamedTuple):
    """Soliton scalar lambda, conformal pressure p, and the derived
    k = lambda - (p/2 + 1/n) - alpha (None when no alpha is available)."""

    lam: Expr
    p: Expr
    k: Expr | None = None

    @classmethod
    def derive(cls, lam: Expr, p: Expr, alpha: Expr, n: int) -> "SolitonParams":
        half = Fraction(1, 2)
        k = lam - (half * p + Fraction(1, n)) - alpha
        return cls(lam, p, k)


def soliton_lambda(alpha: Expr, p: Expr, n: int) -> tuple[Expr, Expr]:
    """The printed soliton scalar lambda = p/2 + ((n+1)/n) alpha, together
    with the independently re-derived trace value p/2 + ((n-1)/n) alpha.

    The second comes from tracing S = k g - alpha eta x eta with
    g(xi, xi) = -1 and the flow constraint r = -1; the two disagree, so
    both are always returned and reported side by side.
    """
    half_p = Fraction(1, 2) * p
    printed = half_p + Fraction(n + 1, n) * alpha
    traced = half_p + Fraction(n - 1, n) * alpha
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
    factor = 2 * params.lam - (params.p + Fraction(2, n))

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


class DerivedConditions(NamedTuple):
    """The action tensors R(xi,X).M and C(xi,X).S with their zero flags,
    nondegeneracy guards, and gated Einstein conclusions."""

    rxm: FrameTensor
    rxm_zero: bool
    cxs: FrameTensor
    cxs_zero: bool
    guard_rxm: Expr  # alpha^2 - rho
    guard_rxm_nonzero: bool
    guard_cxs: Expr  # n(n-1)(alpha^2 - rho) + 1
    guard_cxs_nonzero: bool
    mproj_xi_residual: FrameTensor  # eta(M(X,Y)xi), identically zero on LCS
    einstein_from_rxm: ClassifierVerdict | None
    einstein_from_cxs: ClassifierVerdict | None


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
    rxm_zero = rxm.is_zero()
    cxs_zero = cxs.is_zero()
    guard_rxm_nonzero = not guard_rxm.is_zero
    guard_cxs_nonzero = not guard_cxs.is_zero

    rxm_gate = rxm_zero and guard_rxm_nonzero
    cxs_gate = cxs_zero and guard_cxs_nonzero
    # both gates classify the same S: one verdict serves each that fires
    verdict = classify(ric, data.metric, st.eta) if rxm_gate or cxs_gate else None

    return DerivedConditions(
        rxm=rxm,
        rxm_zero=rxm_zero,
        cxs=cxs,
        cxs_zero=cxs_zero,
        guard_rxm=guard_rxm,
        guard_rxm_nonzero=guard_rxm_nonzero,
        guard_cxs=guard_cxs,
        guard_cxs_nonzero=guard_cxs_nonzero,
        mproj_xi_residual=mproj_xi,
        einstein_from_rxm=verdict if rxm_gate else None,
        einstein_from_cxs=verdict if cxs_gate else None,
    )
