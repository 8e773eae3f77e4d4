"""The Einstein classification of a Ricci tensor, and the exact solver of
an overdetermined linear system in two unknowns that it shares with the
recurrence fit (``conditions.recurrence_fit``)."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .frame_geometry import FrameMetric, FrameTensor
from .symexpr import Expr


class EinsteinKind(Enum):
    EINSTEIN = "Einstein"
    ETA_EINSTEIN = "EtaEinstein"
    NEITHER = "Neither"


class ClassifierVerdict(NamedTuple):
    kind: EinsteinKind
    a: Expr | None = None
    b: Expr | None = None


def classify(ric: FrameTensor, metric: FrameMetric, eta) -> ClassifierVerdict:
    """Decide S = a g + b eta x eta by exact linear algebra plus a full
    residual verification; b = 0 collapses to the Einstein case."""
    n = metric.dim
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append((metric.g[i][j], eta[i] * eta[j], ric.comp(i, j)))
    sol, _witness = solve_two_unknowns(rows)
    if sol is None:
        return ClassifierVerdict(EinsteinKind.NEITHER)
    a, b = sol
    kind = EinsteinKind.EINSTEIN if b.is_zero else EinsteinKind.ETA_EINSTEIN
    return ClassifierVerdict(kind, a, b)


def solve_two_unknowns(rows):
    """Exact solution of rows (p, q, rhs) meaning p u + q v = rhs.

    Returns ((u, v), None) on success, with underdetermined unknowns set
    to zero, or (None, index) pointing at the first inconsistent row.
    Every returned solution has been verified against every row.
    """
    if not rows:
        raise ValueError("empty linear system")
    pivot1 = next((r for r in rows if not r[0].is_zero or not r[1].is_zero), None)
    if pivot1 is None:
        bad = next((i for i, r in enumerate(rows) if not r[2].is_zero), None)
        if bad is not None:
            return None, bad
        zero = Expr.zero(rows[0][2].vars)
        return (zero, zero), None
    p1, q1, r1 = pivot1
    pivot2 = None
    for p2, q2, r2 in rows:
        if not (p1 * q2 - p2 * q1).is_zero:
            pivot2 = (p2, q2, r2)
            break
    if pivot2 is None:
        # rank-one family: zero the unknown the pivot row does not need
        zero = Expr.zero(p1.vars)
        if not p1.is_zero:
            u, v = r1 / p1, zero
        else:
            u, v = zero, r1 / q1
    else:
        p2, q2, r2 = pivot2
        det = p1 * q2 - p2 * q1
        u = (r1 * q2 - r2 * q1) / det
        v = (p1 * r2 - p2 * r1) / det
    for idx, (p, q, r) in enumerate(rows):
        if not (p * u + q * v - r).is_zero:
            return None, idx
    return (u, v), None
