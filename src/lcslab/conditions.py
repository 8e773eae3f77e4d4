"""Residual checkers and the exact fitter for the recurrence conditions,
and the scalar-curvature predictions of SGR.

Each recurrence condition is stated once, in ``_recurrence_terms``, as the
tensors of lhs(w) = A(E_w) p + B(E_w) q, lhs(w) being lhs along E_w.  Its
residual lhs(w) - A(E_w) p - B(E_w) q is formed by
``frame_geometry.residual`` on its support, direction by direction:
``recurrence_residual`` puts those together for ``check`` to report.
``recurrence_fit`` solves every direction through one ``einstein.fit_two``
call on the components stored in p or q, which finds the pivot rows of
(p, q) once, and stops at the first direction whose residual is nonzero: that
residual's first nonzero component is the fit's witness, and a fit that
returns forms has checked them against every component, which is what the
``roundtrip`` entry of ``fit`` reports.  A kind is the string the reports
print, one of ``cli.RECURRENCE_KINDS``.

Every condition here and in ``soliton``, ``derived_conditions`` and
``axioms`` holds exactly when its residual is zero, so each returns the
residual (an axiom, the detail of its first nonzero component) and no flag
beside it: the report code reads ``is_zero`` (and ``cli.residual_excerpt``)
of the residual itself.  The metric duals of the forms are raised only where
they are read, in ``fit``'s ``duals`` entry: the eta(rho1) of the paper's
SGR prediction is A(xi), which ``sgr_predictions`` reads directly.

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

from collections import namedtuple

from .einstein import fit_two
from .frame_geometry import FrameTensor, residual
from .manifold import ManifoldData


class RecurrenceForms(namedtuple("RecurrenceForms", "a b")):
    """1-forms A, B on the frame: a, b (tuples of Expr, A(E_i) and B(E_i))."""

    __slots__ = ()


class NoSolution(namedtuple("NoSolution", "direction component needed detail")):
    """Witness that a recurrence fit is inconsistent: direction (int),
    component (tuple of int), needed (Expr), detail (str)."""

    __slots__ = ()

    def describe(self) -> str:
        idx = ",".join(str(i + 1) for i in self.component)
        return f"direction E{self.direction + 1}, component ({idx}): {self.detail}"


def _recurrence_terms(data: ManifoldData, kind: str):
    """The condition of ``kind`` (one of ``cli.RECURRENCE_KINDS``), read as
    lhs(w, *idx) = A(E_w) p(*idx) + B(E_w) q(*idx), as the three tensors
    (lhs, p, q); lhs has the free slot w first.

    SGR and SGPR have vector leaves at (x, y, z): lhs is (nabla_w R)(E_x,E_y)E_z,
    phi^2 of it for SGPR; p = R(E_x,E_y)E_z and q = g(E_y,E_z) E_x.  SGRR has
    scalar leaves at (i, j): lhs is (nabla_w S)(E_i,E_j), p = S(E_i,E_j) and
    q = n g(E_i,E_j).
    """
    n = data.dim
    g, pairs = data.metric.g, data.metric.tensor.comps
    if kind == "SGRR":
        n_const = data.chart.const(n)
        return data.nabla_ricci, data.stack.ricci, FrameTensor.build((0, 2), n, lambda i, j: n_const * g[i][j], pairs)
    lhs = nabla_r = data.nabla_riemann
    if kind == "SGPR":
        phi_of = data.structure.phi_of
        lhs = FrameTensor.build((1, 4), n, lambda *idx: phi_of(phi_of(nabla_r.comp(*idx))), nabla_r.comps)
    zeros = (data.chart.zero(),) * n
    support = [(x, y, z) for x in range(n) for y, z in pairs]
    g_term = FrameTensor.build((1, 3), n, lambda x, y, z: zeros[:x] + (g[y][z],) + zeros[x + 1 :], support)
    return lhs, data.stack.riemann13, g_term


def _directions(tensor: FrameTensor):
    """The tensors along E_1..E_n of a tensor whose first slot is its free
    direction: the leaves at first index w, keyed by the other indices."""
    slices = [{} for _ in range(tensor.dim)]
    for (w, *idx), leaf in tensor.comps.items():
        slices[w][tuple(idx)] = leaf
    valence = (tensor.valence[0], tensor.valence[1] - 1)
    return [tensor._replace(valence=valence, comps=comps) for comps in slices]


def recurrence_residual(data: ManifoldData, kind: str, forms: RecurrenceForms) -> FrameTensor:
    """Exact residual tensor lhs - A p - B q of the recurrence condition."""
    lhs, p, q = _recurrence_terms(data, kind)
    comps = {}
    for w, lhs_w in enumerate(_directions(lhs)):
        res = residual(lhs_w, p, q, forms.a[w], forms.b[w])
        comps.update(((w, *idx), leaf) for idx, leaf in res.comps.items())
    return lhs._replace(comps=comps)


def recurrence_fit(data: ManifoldData, kind: str):
    """Fit the 1-forms A, B direction by direction from the overdetermined
    exact linear system; returns RecurrenceForms or a NoSolution witness.

    Every direction is one right-hand side of the same (p, q), so the
    directions go through one ``einstein.fit_two`` call, which finds the
    pivot rows once and solves the directions in order, each residual
    checking its solution against every component.  The first nonzero
    component of the first nonzero residual, in (leaf, component) order, is
    the witness, and no later direction is solved.  Directions where the
    system is underdetermined get A(E_i) = B(E_i) = 0.
    """
    if kind not in ("SGR", "SGRR"):
        raise ValueError(f"fit supports SGR and SGRR, not {kind}")
    lhs, p, q = _recurrence_terms(data, kind)
    solved = []
    for w, (u, v, res) in enumerate(fit_two(_directions(lhs), p, q)):
        idx, _ = res.first_nonzero()
        if idx is not None:
            rhs, p_k, q_k = lhs.at((w, *idx)), p.at(idx), q.at(idx)
            if p_k.is_zero and q_k.is_zero:
                detail = f"the condition forces 0 = {rhs}"
            else:
                detail = "no values of the forms satisfy this component together with the others"
            return NoSolution(w, idx, rhs, detail)
        solved.append((u, v))
    return RecurrenceForms(*zip(*solved))


class SgrPredictions(namedtuple("SgrPredictions", "r_predicted r_note opposition opposition_note")):
    """Scalar-curvature consequences of the recurrence hypothesis.  They are
    assertions only where the SGR residual of the same forms vanishes.

    r_predicted (Expr, or None where r_note says why not); r_note (str);
    opposition (tuple of Expr: A + (n^2/r) B, or None where opposition_note
    says why not); opposition_note (str).
    """

    __slots__ = ()


def sgr_predictions(data: ManifoldData, forms: RecurrenceForms) -> SgrPredictions:
    """Evaluate r = 2(n-1)(alpha^2-rho) - (n^2+2) B(xi)/A(xi), the paper's
    {2(n-1)(alpha^2-rho) eta(rho1) - (n^2+2) B(xi)}/A(xi) with eta(rho1) =
    g(rho1, xi) = A(xi), and the opposition relation A + (n^2/r) B = 0."""
    n = data.dim
    chart = data.chart
    st = data.structure
    r = data.stack.scalar

    a_xi, b_xi = forms.a[data.xi_index], forms.b[data.xi_index]
    k2 = st.alpha * st.alpha - st.rho
    if a_xi.is_zero:
        r_pred = None
        r_note = "A(xi) is identically zero; the prediction formula divides by it"
    else:
        r_pred = chart.const(2 * (n - 1)) * k2 - chart.const(n * n + 2) * b_xi / a_xi
        r_note = ""

    if not r.is_constant:
        opposition = None
        opposition_note = "scalar curvature is not constant; the opposition relation needs a nonzero constant"
    elif r.is_zero:
        opposition = None
        opposition_note = "scalar curvature is zero; the opposition relation divides by it"
    else:
        factor = chart.const(n * n) / r
        opposition = tuple(forms.a[i] + factor * forms.b[i] for i in range(n))
        opposition_note = ""

    return SgrPredictions(r_pred, r_note, opposition, opposition_note)
