"""Multivariate polynomial kernels.

A polynomial in n variables is a dict mapping length-n exponent tuples to
nonzero integer coefficients; {} is the zero polynomial.  These functions
are the hot inner loops of every engine operation.  Functions never mutate
their arguments, so a result may be one of the arguments itself.

Term order, where it matters, is graded lexicographic: higher total degree
first, ties broken by tuple comparison (earlier variables more significant).

Multiplying by the constant 1 returns the other operand itself.  Exact
division by a one-term divisor is one pass: the constant 1 returns the
dividend itself, and any other c*x^e divides each term on its own.  Only
multi-term divisors run the long-division loop.
"""

from __future__ import annotations

from operator import add, sub

Poly = dict


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def poly_sub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def poly_neg(a: Poly) -> Poly:
    return {e: -c for e, c in a.items()}


def _is_one(a: Poly) -> bool:
    if len(a) != 1:
        return False
    ((e, c),) = a.items()
    return c == 1 and not any(e)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):  # fewer outer iterations on the shorter operand
        a, b = b, a
    if len(a) == 1:
        if _is_one(a):
            return b
        if _is_one(b):
            return a
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_mul_scalar(a: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {e: c * k for e, c in a.items()}


def poly_lead(a: Poly):
    """Leading (exponents, coefficient) pair under graded lex; None if zero."""
    best = None
    best_key = None
    for e, c in a.items():
        key = (sum(e), e)
        if best_key is None or key > best_key:
            best_key = key
            best = (e, c)
    return best


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a/b over the integers.

    Raises ValueError when b does not divide a; callers only divide by
    known divisors (GCDs, contents), so that is an internal-error signal.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(b) == 1:
        ((eb, cb),) = b.items()
        if cb == 1 and not any(eb):
            return a
        quo: Poly = {}
        for e, c in a.items():
            eq = tuple(map(sub, e, eb))
            if min(eq, default=0) < 0 or c % cb:
                raise ValueError("inexact polynomial division")
            quo[eq] = c // cb
        return quo
    eb, cb = poly_lead(b)
    quo = {}
    rem = dict(a)
    while rem:
        er, cr = poly_lead(rem)
        eq = tuple(map(sub, er, eb))
        if min(eq, default=0) < 0 or cr % cb:
            raise ValueError("inexact polynomial division")
        cq = cr // cb
        quo[eq] = cq
        for e2, c2 in b.items():
            e = tuple(map(add, eq, e2))
            s = rem.get(e, 0) - cq * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quo
