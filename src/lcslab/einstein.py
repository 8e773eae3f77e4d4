"""The Einstein classification of a Ricci tensor, and the exact solver of
an overdetermined linear system in two unknowns that it shares with the
recurrence fit (``conditions.recurrence_fit``).

The solver solves on pivot rows only; each caller verifies the solution
against every row: ``classify`` row by row, the fit through the residual
leaves that ``check`` reports."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .frame_geometry import FrameMetric, FrameTensor
from .symexpr import Expr


class EinsteinKind(Enum):
    EINSTEIN = "Einstein"
    ETA_EINSTEIN = "EtaEinstein"
    NEITHER = "Neither"


class ClassifierVerdict(namedtuple("ClassifierVerdict", "kind a b", defaults=(None, None))):
    """kind (EinsteinKind); a, b (Expr or None)."""

    __slots__ = ()


def classify(ric: FrameTensor, metric: FrameMetric, eta) -> ClassifierVerdict:
    """Decide S = a g + b eta x eta by exact linear algebra plus a full
    residual verification; b = 0 collapses to the Einstein case."""
    n = metric.dim
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append((metric.g[i][j], eta[i] * eta[j], ric.comp(i, j)))
    a, b = solve_two_unknowns(rows)
    if any(not (p * a + q * b - s).is_zero for p, q, s in rows):
        return ClassifierVerdict(EinsteinKind.NEITHER)
    kind = EinsteinKind.EINSTEIN if b.is_zero else EinsteinKind.ETA_EINSTEIN
    return ClassifierVerdict(kind, a, b)


def solve_two_unknowns(rows):
    """Exact solution (u, v) of rows (p, q, rhs) meaning p u + q v = rhs,
    solved on its pivot rows: the first row with p or q nonzero, and the
    first row independent of it.  Unknowns the pivots leave free are set to
    zero.  No row is checked against the solution: the caller does that.
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
