"""The subresultant GCD, ``polyops``' fallback when the heuristic GCD gives up.

``polyops._gcd_rec`` imports this module on the first fallback, so a run
whose GCDs all succeed heuristically never compiles it.  ``poly_gcd`` is its
only caller and passes it two unequal multi-term operands, having decided
the zero, equal and one-term cases itself.  The GCD takes content and
primitive part in the first variable either operand uses, then the
subresultant remainder sequence of the primitive parts.  Each content, and
the GCD of the two contents, is a GCD in fewer variables, which it asks of
``poly_gcd``: so those are memoised and try the heuristic first, and a pair
the heuristic gives up on comes back here.
Kernels are called through ``polyops``, as from its own functions, so a
wrapper installed there sees these calls too.
"""

from __future__ import annotations

from . import polyops as P
from .polyops import Poly


def _deg_in(a: Poly, v: int) -> int:
    return max((e[v] for e in a), default=-1)


def _coeff_in(a: Poly, v: int, d: int) -> Poly:
    """Coefficient of x_v^d as a polynomial with the v-slot zeroed."""
    out: Poly = {}
    for e, c in a.items():
        if e[v] == d:
            out[e[:v] + (0,) + e[v + 1 :]] = c
    return out


def _shift_in(a: Poly, v: int, k: int) -> Poly:
    return {e[:v] + (e[v] + k,) + e[v + 1 :]: c for e, c in a.items()}


def _pseudo_rem(f: Poly, g: Poly, v: int) -> Poly:
    """Classical pseudo-remainder lc(g)^(deg f - deg g + 1) f mod g in x_v."""
    df = _deg_in(f, v)
    dg = _deg_in(g, v)
    delta = df - dg
    lg = _coeff_in(g, v, dg)
    r = f
    steps = 0
    while r:
        dr = _deg_in(r, v)
        if dr < dg:
            break
        lr = _coeff_in(r, v, dr)
        r = P.poly_sub(P.poly_mul(lg, r), P.poly_mul(_shift_in(lr, v, dr - dg), g))
        steps += 1
    for _ in range(delta + 1 - steps):
        r = P.poly_mul(lg, r)
    return r


def _content_in(a: Poly, v: int) -> Poly:
    """GCD of the x_v-coefficients of a (a polynomial free of x_v)."""
    cont: Poly = {}
    for d in range(_deg_in(a, v) + 1):
        cd = _coeff_in(a, v, d)
        if cd:
            cont = P.poly_gcd(cont, cd)
            if P.poly_is_one(cont):
                break
    return cont


def _subresultant_pp_gcd(f: Poly, g: Poly, v: int) -> Poly:
    """GCD of two x_v-primitive polynomials, by the subresultant sequence.

    Content extraction happens once at the end instead of at every step,
    which keeps the remainder sequence cheap (Collins/Brown/Traub).
    """
    nvars = len(next(iter(f)))
    one = P.poly_const(nvars, 1)
    gg = one
    hh = one
    while True:
        delta = _deg_in(f, v) - _deg_in(g, v)
        r = _pseudo_rem(f, g, v)
        if not r:
            break
        if _deg_in(r, v) == 0:
            return one  # primitive inputs with a constant-in-x_v remainder are coprime
        f, g = g, P.poly_divexact(r, P.poly_mul(gg, P.poly_pow(hh, delta, nvars)))
        gg = _coeff_in(f, v, _deg_in(f, v))
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            hh = gg
        else:
            hh = P.poly_divexact(P.poly_pow(gg, delta, nvars), P.poly_pow(hh, delta - 1, nvars))
    pp = P.poly_divexact(g, _content_in(g, v))
    return pp


def _gcd_rec(a: Poly, b: Poly) -> Poly:
    """GCD of two unequal multi-term polynomials (``poly_gcd`` decides every
    other case), leading coefficient positive."""
    # two multi-term operands have a variable; v is the first either uses
    v = next(v for v in range(len(next(iter(a)))) if P.poly_appears(a, v) or P.poly_appears(b, v))
    cont_a = _content_in(a, v) if P.poly_appears(a, v) else a
    cont_b = _content_in(b, v) if P.poly_appears(b, v) else b
    cont = P.poly_gcd(cont_a, cont_b)
    pa = P.poly_divexact(a, cont_a)
    pb = P.poly_divexact(b, cont_b)

    f, g = (pa, pb) if _deg_in(pa, v) >= _deg_in(pb, v) else (pb, pa)
    if _deg_in(g, v) == 0:
        # one part is free of x_v, and both are primitive: coprime
        return P.normalize_sign(cont)
    pp = _subresultant_pp_gcd(f, g, v)
    return P.normalize_sign(P.poly_mul(cont, pp))
