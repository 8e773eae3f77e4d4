"""The Einstein classification of a Ricci tensor, and the exact fit of a
relation lhs = u p + v q between frame tensors that it shares with the
recurrence fit (``conditions.recurrence_fit``).

``fit_two`` solves for u, v on the pivot rows of the components stored in p
or q, and returns the solution with its residual lhs - u p - v q
(``frame_geometry.residual``): the solution holds exactly when that residual
is zero, which checks every row, the rows where p and q vanish included."""

from __future__ import annotations

from collections import namedtuple

from .frame_geometry import FrameMetric, FrameTensor, residual
from .symexpr import Expr


class ClassifierVerdict(namedtuple("ClassifierVerdict", "kind a b", defaults=(None, None))):
    """kind (str, as the reports print it: "Einstein", "EtaEinstein" or
    "Neither"); a, b (Expr, or None for "Neither")."""

    __slots__ = ()


def classify(ric: FrameTensor, metric: FrameMetric, eta) -> ClassifierVerdict:
    """Decide S = a g + b eta x eta by exact linear algebra plus a full
    residual verification; b = 0 collapses to the Einstein case."""
    n = metric.dim
    g = FrameTensor.build((0, 2), n, lambda i, j: metric.g[i][j])
    eta2 = FrameTensor.build((0, 2), n, lambda i, j: eta[i] * eta[j])
    a, b, res = fit_two(ric, g, eta2)
    if not res.is_zero:
        return ClassifierVerdict("Neither")
    return ClassifierVerdict("Einstein" if b.is_zero else "EtaEinstein", a, b)


def fit_two(lhs: FrameTensor, p: FrameTensor, q: FrameTensor):
    """(u, v, residual): the pivot solution of lhs = u p + v q and its
    residual lhs - u p - v q.  The rows are the components of the leaves
    stored in p or q, in ``itertools.product`` order of the leaf, then of a
    vector leaf's component; every other row reads 0 = lhs, which the
    residual checks with the rest."""
    leaves = [(p.comp(*idx), q.comp(*idx), lhs.comp(*idx)) for idx in sorted(p.comps.keys() | q.comps.keys())]
    u, v = solve_two_unknowns([row for t in leaves for row in zip(*t)] if p.valence[0] else leaves)
    return u, v, residual(lhs, p, q, u, v)


def solve_two_unknowns(rows):
    """Exact solution (u, v) of rows (p, q, rhs) meaning p u + q v = rhs,
    solved on its pivot rows: the first row with p or q nonzero, and the
    first row independent of it.  Unknowns the pivots leave free are set to
    zero.  No row is checked against the solution: ``fit_two`` does that.
    """
    if not rows:
        raise ValueError("empty linear system")
    pivot1 = next((r for r in rows if not r[0].is_zero or not r[1].is_zero), None)
    if pivot1 is None:
        zero = Expr.zero(rows[0][2].vars)
        return zero, zero
    p1, q1, r1 = pivot1
    pivot2 = next((r for r in rows if not (p1 * r[1] - r[0] * q1).is_zero), None)
    if pivot2 is None:
        # rank-one family: zero the unknown the pivot row does not need
        zero = Expr.zero(p1.vars)
        if not p1.is_zero:
            return r1 / p1, zero
        return zero, r1 / q1
    p2, q2, r2 = pivot2
    det = p1 * q2 - p2 * q1
    return (r1 * q2 - r2 * q1) / det, (p1 * r2 - p2 * r1) / det
