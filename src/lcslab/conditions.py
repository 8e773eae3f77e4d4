"""Residual checkers and the exact fitter for the recurrence conditions,
and the scalar-curvature predictions of SGR.

Each recurrence condition is stated once, in ``_recurrence_terms``, as
lhs = A(E_w) p + B(E_w) q, and its residual leaf lhs - A p - B q once, in
``_residual_leaf``.  ``recurrence_residual`` builds the whole residual
tensor from that leaf, for ``check`` to report.  ``recurrence_fit`` reads
the condition's leaves as the rows of the linear system in A(E_w), B(E_w),
solves it on pivot rows, and checks the solution through the same residual
leaves, each formed once and in order, up to the first nonzero component:
that component is the fit's witness, and a fit that returns forms has
checked them against every component, which is what the ``roundtrip``
entry of ``fit`` reports.

The other conditions are modules of their own, so that each command loads
only the conditions it checks: ``soliton`` (the conformal soliton residual
and its scalars) and ``derived_conditions`` (R(xi,X).M, C(xi,X).S, their
guards and the xi-identity).  The actions R(xi,X).M and C(xi,X).S are
algebraic derivations, and L_xi g a Lie derivative: each goes through
``levi_civita.derivation``, the one routine that forms a derivation's slot
sums, and is evaluated on its support.

Gate discipline: a derived consequence is asserted only when its hypothesis
residual is exactly zero and its nondegeneracy guard is nonzero in the
function field; otherwise the same quantities are reported informationally.
The rule lives in one place, ``cli.add_gated``, which reports every such
consequence (the SGR predictions of ``check`` and the Einstein conclusions
of ``derived-conditions``).  Every assertion made from this module and
those is therefore literally checkable.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum

from .einstein import solve_two_unknowns
from .frame_geometry import FrameTensor, vec_scale, vec_sub
from .manifold import ManifoldData


class RecurrenceKind(Enum):
    SGR = "SGR"  # semi-generalized recurrent: nabla R = A x R + B x (g-term)
    SGRR = "SGRR"  # Ricci variant: nabla S = A x S + n B x g
    SGPR = "SGPR"  # phi-recurrent variant: phi^2(nabla R) = A x R + B x (g-term)


class RecurrenceForms(namedtuple("RecurrenceForms", "a b rho1 rho2")):
    """1-forms A, B on the frame plus their metric-dual vectors: a, b, rho1,
    rho2 (tuples of Expr)."""

    __slots__ = ()

    @classmethod
    def from_covectors(cls, data: ManifoldData, a, b) -> "RecurrenceForms":
        return cls(tuple(a), tuple(b), data.metric.raise_form(a), data.metric.raise_form(b))


class NoSolution(namedtuple("NoSolution", "kind direction component needed detail")):
    """Witness that a recurrence fit is inconsistent: kind (RecurrenceKind),
    direction (int), component (tuple of int), needed (Expr), detail (str)."""

    __slots__ = ()

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


def _residual_leaf(terms, a, b):
    """The leaf (w, *idx) -> lhs - A(E_w) p - B(E_w) q of the condition
    ``terms`` (from ``_recurrence_terms``), with A(E_w) = a[w], B(E_w) = b[w]."""
    (r, _), lhs, p, q = terms
    if r:

        def leaf(w, *idx):
            return vec_sub(vec_sub(lhs(w, *idx), vec_scale(a[w], p(*idx))), vec_scale(b[w], q(*idx)))

    else:

        def leaf(w, *idx):
            return lhs(w, *idx) - a[w] * p(*idx) - b[w] * q(*idx)

    return leaf


def recurrence_residual(data: ManifoldData, kind: RecurrenceKind, forms: RecurrenceForms):
    """Exact residual tensor lhs - A p - B q of the recurrence condition; flag true iff zero."""
    terms = _recurrence_terms(data, kind)
    res = FrameTensor.build(terms[0], data.dim, _residual_leaf(terms, forms.a, forms.b))
    return res, res.is_zero


def recurrence_fit(data: ManifoldData, kind: RecurrenceKind):
    """Fit the 1-forms A, B direction by direction from the overdetermined
    exact linear system; returns RecurrenceForms or a NoSolution witness.

    The rows of direction w are the leaf components of the condition, in
    ``itertools.product`` order of the leaf index, then of a vector leaf's
    component u.  A(E_w), B(E_w) are solved on the pivot rows and then
    checked through the residual leaves of direction w, each formed once, in
    the same order; the first nonzero component is the witness.  Directions
    where the system is underdetermined get A(E_i) = B(E_i) = 0.
    """
    if kind not in (RecurrenceKind.SGR, RecurrenceKind.SGRR):
        raise ValueError(f"fit supports SGR and SGRR, not {kind}")
    n = data.dim
    terms = (r, s), lhs, p, q = _recurrence_terms(data, kind)
    leaves = list(itertools.product(range(n), repeat=s - 1))
    index = [idx + (u,) for idx in leaves for u in range(n)] if r else leaves
    flat = itertools.chain.from_iterable if r else iter  # the leaves' components, in order
    ps = list(flat(p(*idx) for idx in leaves))
    qs = list(flat(q(*idx) for idx in leaves))
    a_comps, b_comps = [], []  # filled one direction at a time, as the leaf reads them
    residual = _residual_leaf(terms, a_comps, b_comps)
    for w in range(n):
        rhs = list(flat(lhs(w, *idx) for idx in leaves))
        u, v = solve_two_unknowns(list(zip(ps, qs, rhs)))
        a_comps.append(u)
        b_comps.append(v)
        for k, e in enumerate(flat(residual(w, *idx) for idx in leaves)):
            if not e.is_zero:
                if ps[k].is_zero and qs[k].is_zero:
                    detail = f"the condition forces 0 = {rhs[k]}"
                else:
                    detail = "no values of the forms satisfy this component together with the others"
                return NoSolution(kind, w, index[k], rhs[k], detail)
    return RecurrenceForms.from_covectors(data, a_comps, b_comps)


class SgrPredictions(
    namedtuple("SgrPredictions", "r_engine r_predicted r_note r_matches opposition opposition_note opposition_zero")
):
    """Scalar-curvature consequences of the recurrence hypothesis.  They are
    assertions only where the SGR residual of the same forms vanishes.

    r_engine (Expr); r_predicted (Expr or None); r_note (str); r_matches
    (bool or None); opposition (tuple of Expr, or None); opposition_note
    (str); opposition_zero (bool or None).
    """

    __slots__ = ()


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
