# cython: language_level=3
"""Multivariate polynomial kernels, compiled backend.

Twin of ``_poly_py``: same dict-of-exponent-tuples representation, same
semantics, bit-identical results.  Coefficients stay arbitrary-precision
Python ints; the speedup comes from typed loops over the term dicts and
exponent tuples.
"""


cdef tuple _exp_add(tuple x, tuple y):
    cdef Py_ssize_t i, n = len(x)
    cdef list out = [0] * n
    for i in range(n):
        out[i] = x[i] + y[i]
    return tuple(out)


cdef tuple _exp_sub(tuple x, tuple y):
    """x - y componentwise, or None when a component goes negative."""
    cdef Py_ssize_t i, n = len(x)
    cdef list out = [0] * n
    for i in range(n):
        d = x[i] - y[i]
        if d < 0:
            return None
        out[i] = d
    return tuple(out)


cdef long _total(tuple e):
    cdef long t = 0
    cdef Py_ssize_t i
    for i in range(len(e)):
        t += <long> e[i]
    return t


def poly_add(dict a, dict b):
    cdef dict out = dict(a)
    cdef tuple e
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def poly_sub(dict a, dict b):
    cdef dict out = dict(a)
    cdef tuple e
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def poly_neg(dict a):
    cdef dict out = {}
    cdef tuple e
    for e, c in a.items():
        out[e] = -c
    return out


def poly_mul(dict a, dict b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    cdef dict out = {}
    cdef dict pruned = {}
    cdef tuple ea, eb, e
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = _exp_add(ea, eb)
            out[e] = out.get(e, 0) + ca * cb
    for e, c in out.items():
        if c:
            pruned[e] = c
    return pruned


def poly_mul_scalar(dict a, k):
    if k == 0:
        return {}
    cdef dict out = {}
    cdef tuple e
    for e, c in a.items():
        out[e] = c * k
    return out


def poly_lead(dict a):
    cdef tuple best_e = None
    cdef long best_t = 0, t
    cdef tuple e
    best_c = None
    for e, c in a.items():
        t = _total(e)
        if best_e is None or t > best_t or (t == best_t and e > best_e):
            best_e, best_c, best_t = e, c, t
    if best_e is None:
        return None
    return (best_e, best_c)


def poly_divexact(dict a, dict b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    cdef tuple eb, er, eq, e2, e
    cdef dict quo = {}
    if len(b) == 1:
        # one-term divisor: 1 returns a itself, c*x^e divides term by term
        eb, cb = next(iter(b.items()))
        if cb == 1 and not any(eb):
            return a
        for er, cr in a.items():
            eq = _exp_sub(er, eb)
            if eq is None or cr % cb != 0:
                raise ValueError("inexact polynomial division")
            quo[eq] = cr // cb
        return quo
    lead_b = poly_lead(b)
    eb = lead_b[0]
    cb = lead_b[1]
    cdef dict rem = dict(a)
    while rem:
        lead_r = poly_lead(rem)
        er = lead_r[0]
        cr = lead_r[1]
        eq = _exp_sub(er, eb)
        if eq is None or cr % cb != 0:
            raise ValueError("inexact polynomial division")
        cq = cr // cb
        quo[eq] = cq
        for e2, c2 in b.items():
            e = _exp_add(eq, e2)
            s = rem.get(e, 0) - cq * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quo
