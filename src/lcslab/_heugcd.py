"""The heuristic GCD, the first try of ``polyops.poly_gcd`` on two multi-term
polynomials whose GCD is not memoised.

``polyops._heu_gcd`` imports this module on the first such memo miss, so a
command whose GCDs are all trivial (a zero, equal or one-term operand) or
memoised never compiles it.  Evaluate both polynomials at a large integer
point, take the integer GCD, reconstruct a candidate from its balanced
base-xi digits, and accept it only if it divides both inputs exactly.
Coprime inputs (the common case when canonicalizing fractions) cost one
evaluation and one integer GCD.  When the heuristic keeps failing,
``_heu_gcd`` returns None and the subresultant remainder sequence
(``_subresultant``) decides.  Kernels and helpers are called through
``polyops``, as from its own functions, so a wrapper installed there sees
these calls too.
"""

from __future__ import annotations

from math import gcd as int_gcd

from . import polyops as P
from .polyops import Poly


def _eval_var(p: Poly, v: int, xi: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        key = e[:v] + (0,) + e[v + 1 :]
        out[key] = out.get(key, 0) + c * xi ** e[v]
    return {e: c for e, c in out.items() if c}


def _interp_var(p: Poly, v: int, xi: int) -> Poly:
    """Inverse of evaluation at xi, using balanced digits in (-xi/2, xi/2]."""
    out: Poly = {}
    cur = p
    k = 0
    half = xi // 2
    while cur:
        nxt: Poly = {}
        for e, c in cur.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e[:v] + (k,) + e[v + 1 :]] = d
            q = (c - d) // xi
            if q:
                nxt[e] = q
        cur = nxt
        k += 1
    return out


def _max_norm(p: Poly) -> int:
    return max(abs(c) for c in p.values())


def _heu_gcd(a: Poly, b: Poly, vs: tuple):
    """Heuristic GCD; returns None when no candidate verified."""
    if not a:
        return P.normalize_sign(b)
    if not b:
        return P.normalize_sign(a)
    used = tuple(v for v in vs if P.poly_appears(a, v) or P.poly_appears(b, v))
    nvars = len(next(iter(a)))
    if not used:
        return P.poly_const(nvars, int_gcd(next(iter(a.values())), next(iter(b.values()))))
    v = used[0]

    ca, cb = P._int_content(a), P._int_content(b)
    cg = int_gcd(ca, cb)
    a0 = {e: c // ca for e, c in a.items()} if ca > 1 else a
    b0 = {e: c // cb for e, c in b.items()} if cb > 1 else b

    xi = 2 * min(_max_norm(a0), _max_norm(b0)) + 29
    for _ in range(6):
        av = _eval_var(a0, v, xi)
        bv = _eval_var(b0, v, xi)
        if av and bv:
            gv = _heu_gcd(av, bv, used[1:])
            if gv is not None:
                cand = _interp_var(gv, v, xi)
                if cand:
                    cc = P._int_content(cand)
                    if cc > 1:
                        cand = {e: c // cc for e, c in cand.items()}
                    cand = P.normalize_sign(cand)
                    try:
                        P.poly_divexact(a0, cand)
                        P.poly_divexact(b0, cand)
                    except ValueError:
                        pass
                    else:
                        return P.normalize_sign(P.poly_mul_scalar(cand, cg))
        xi = 2 * xi + 29
    return None
