"""The Einstein classification of a Ricci tensor, and the exact fit of a
relation lhs = u p + v q between frame tensors that it shares with the
recurrence fit (``conditions.recurrence_fit``).

``fit_two`` solves for u, v on the pivot rows of the components stored in p
or q, and yields the solution with its residual lhs - u p - v q
(``frame_geometry.residual``): the solution holds exactly when that residual
is zero, which checks every row, the rows where p and q vanish included.
The pivot rows, and so the rank of the system, depend on p and q alone: one
call finds them once and solves every lhs it is given against them (the
recurrence fit's n directions, the classifier's one Ricci tensor)."""

from __future__ import annotations

from collections import namedtuple

from .frame_geometry import FrameMetric, FrameTensor, residual


class ClassifierVerdict(namedtuple("ClassifierVerdict", "kind a b", defaults=(None, None))):
    """kind (str, as the reports print it: "Einstein", "EtaEinstein" or
    "Neither"); a, b (Expr, or None for "Neither")."""

    __slots__ = ()


def classify(ric: FrameTensor, metric: FrameMetric, eta) -> ClassifierVerdict:
    """Decide S = a g + b eta x eta by exact linear algebra plus a full
    residual verification; b = 0 collapses to the Einstein case."""
    eta2 = FrameTensor.build((0, 2), metric.dim, lambda i, j: eta[i] * eta[j])
    a, b, res = next(fit_two([ric], metric.tensor, eta2))
    if not res.is_zero:
        return ClassifierVerdict("Neither")
    return ClassifierVerdict("Einstein" if b.is_zero else "EtaEinstein", a, b)


def fit_two(lhss, p: FrameTensor, q: FrameTensor):
    """Yield (u, v, residual) for each lhs of ``lhss`` in turn: the pivot
    solution of lhs = u p + v q and its residual lhs - u p - v q.

    The rows are the components of the leaves stored in p or q, in
    ``itertools.product`` order of the leaf, then of a vector leaf's
    component, each read through ``FrameTensor.at``; every other row reads
    0 = lhs, which the residual checks with the rest.  The pivot rows depend
    on p and q alone, so they are found once: the first row with p or q
    nonzero, and the first row independent of it.  Unknowns the pivots
    leave free are set to zero.  Only the right-hand sides at the pivot
    rows are read from each lhs, which is taken from ``lhss`` only when the
    previous one's residual has been yielded.
    """
    vector = p.valence[0]
    leaves = sorted(p.comps.keys() | q.comps.keys())
    rows = [idx + (c,) for idx in leaves for c in range(p.dim)] if vector else leaves
    zero = p.zero[0] if vector else p.zero
    pivots = []
    row1 = next((k for k in rows if not p.at(k).is_zero or not q.at(k).is_zero), None)
    if row1 is not None:
        pivots.append(row1)
        p1, q1 = p.at(row1), q.at(row1)
        row2 = next((k for k in rows if not (p1 * q.at(k) - p.at(k) * q1).is_zero), None)
        if row2 is not None:
            pivots.append(row2)
            p2, q2 = p.at(row2), q.at(row2)
            det = p1 * q2 - p2 * q1
    for lhs in lhss:
        rhs = [lhs.at(row) for row in pivots]
        if len(rhs) == 2:
            r1, r2 = rhs
            u, v = (r1 * q2 - r2 * q1) / det, (p1 * r2 - p2 * r1) / det
        elif rhs:  # rank one: zero the unknown the pivot row does not need
            u, v = (rhs[0] / p1, zero) if not p1.is_zero else (zero, rhs[0] / q1)
        else:
            u = v = zero
        yield u, v, residual(lhs, p, q, u, v)
