"""The heuristic GCD, the first try of ``polyops.poly_gcd`` on two multi-term
polynomials whose GCD is not memoised.

``polyops._heu_gcd`` imports this module on the first such memo miss, so a
command whose GCDs are all trivial (a zero, equal or one-term operand) or
memoised never compiles it.  It tries, in order:

1. ``_kronecker_gcd``: GCDHEU once on the Kronecker images of the two
   primitive parts (Char, Geddes and Gonnet, "GCDHEU: heuristic polynomial
   GCD algorithm based on integer GCD computation", J. Symbolic Comput. 7,
   1989).  Each variable x_i becomes X^w_i, with the mixed radix
   D_i = 1 + the largest degree of x_i in either operand (the last variable
   is the least significant digit), so every exponent of both operands, and
   of every divisor of either, maps to its own power of X below the box
   prod D_i.  Both images are evaluated at one integer xi, and the balanced
   xi-adic digits of the integer GCD (``_digits``) are read back through
   the radix.
2. ``_heu_gcd``: the same evaluate/reconstruct/verify heuristic one variable
   at a time, the first variable either operand uses, recursing on the
   evaluated polynomials and reading each coefficient's digits back through
   ``_digits``.
3. When both give up, the subresultant remainder sequence
   (``_subresultant``) decides.

Why a verified candidate is the GCD.  With xi >= 2 min(|a|, |b|) + 2 (max
norms; here xi = 2 min + 29), a univariate primitive candidate pp(G) that
divides both operands is their GCD: a further factor h of the GCD would
divide the operand of smaller norm, whose roots all lie below 1 + its norm
in absolute value, so |h(xi)| > xi/2; yet h(xi) divides the content of G,
whose digits are at most xi/2.  The Kronecker map K is a ring homomorphism,
injective on polynomials whose exponents lie in the box.  A candidate g
that divides both primitive parts a, b therefore has K(g) dividing K(a) and
K(b), so K(g) is their univariate GCD by the argument above.  The true GCD
is g u for some u, and K(g) K(u) divides that univariate GCD K(g), so
K(u) = +-1 and, K being injective on the box, u = +-1: g is the GCD.  Both
steps accept a candidate through one check, ``_verified``.  When
gcd(A(xi), B(xi)) = 1 the candidate is 1, which divides everything, so no
division is needed.  A digit at or past the box, or a candidate that fails
a division, hands the pair to the recursion.  So does a box whose
evaluation is large (box * bits(xi) > ``KRONECKER_BITS``): there one
big-integer evaluation costs more than the recursion's small ones.

Coprime inputs (the common case when canonicalizing fractions) cost one
evaluation of each operand and one integer GCD.  Kernels and helpers are
called through ``polyops``, as from its own functions, so a wrapper
installed there sees these calls too.
"""

from __future__ import annotations

from math import gcd as int_gcd
from math import prod
from operator import mul

from . import polyops as P
from .polyops import Poly


def _eval_var(p: Poly, v: int, xi: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        key = e[:v] + (0,) + e[v + 1 :]
        out[key] = out.get(key, 0) + c * xi ** e[v]
    return {e: c for e, c in out.items() if c}


def _digits(c: int, xi: int):
    """Each nonzero balanced xi-adic digit (k, d) of c, d in (-xi/2, xi/2]:
    c = sum d xi^k."""
    half = xi // 2
    k = 0
    while c:
        d = c % xi
        if d > half:
            d -= xi
        if d:
            yield k, d
        c = (c - d) // xi
        k += 1


def _interp_var(p: Poly, v: int, xi: int) -> Poly:
    """Inverse of evaluation at xi, through the balanced digits of each
    coefficient (x_v free in p)."""
    return {e[:v] + (k,) + e[v + 1 :]: d for e, c in p.items() for k, d in _digits(c, xi)}


def _max_norm(p: Poly) -> int:
    return max(abs(c) for c in p.values())


# The largest box * bits(xi) the Kronecker step evaluates; larger inputs go
# straight to the recursion.  Set from the crossover on the GCD memo misses of
# the dense benchmark inputs (all at most 600) and of the blow-up frame's
# curvature stack: up to 1,024 the step took about 0.6 of the recursion's time,
# from 1,025 to 2,048 the same, and beyond that 1.3 to 21 times as much.
KRONECKER_BITS = 1024
_XI_MIN_BITS = (29).bit_length()  # xi = 2 * norm + 29 has at least this many bits


def _primitive(p: Poly) -> tuple[int, Poly]:
    """The integer content of p and its primitive part."""
    c = P._int_content(p)
    return c, ({e: v // c for e, v in p.items()} if c > 1 else p)


def _verified(cand: Poly, a0: Poly, b0: Poly, cg: int):
    """The GCD cg pp(cand) of two polynomials with primitive parts a0, b0
    and content GCD cg, once the primitive part of the nonzero candidate
    divides both a0 and b0 (see the module docstring); None otherwise."""
    cand = P.normalize_sign(_primitive(cand)[1])
    try:
        P.poly_divexact(a0, cand)
        P.poly_divexact(b0, cand)
    except ValueError:
        return None
    return P.normalize_sign(P.poly_mul_scalar(cand, cg))


def _kron_eval(p: Poly, weights: tuple, xi: int) -> int:
    """The Kronecker image of p at xi: sum of c xi^(e . weights)."""
    total = 0
    for e, c in p.items():
        total += c * xi ** sum(map(mul, e, weights))
    return total


def _kronecker_gcd(a: Poly, b: Poly):
    """GCDHEU once on the Kronecker images of two multi-term polynomials (see
    the module docstring); None when the box is too large or the candidate
    does not verify."""
    # xi has at least _XI_MIN_BITS bits, and the box holds every term's own
    # exponent: a box past the bound at any xi is rejected before the
    # exponents are scanned (by term count) and before the contents are taken
    if max(len(a), len(b)) * _XI_MIN_BITS > KRONECKER_BITS:
        return None
    radix = [max(s, t) + 1 for s, t in zip(map(max, zip(*a)), map(max, zip(*b)))]
    box = prod(radix)
    if box * _XI_MIN_BITS > KRONECKER_BITS:
        return None
    ca, a0 = _primitive(a)
    cb, b0 = _primitive(b)
    cg = int_gcd(ca, cb)
    xi = 2 * min(_max_norm(a0), _max_norm(b0)) + 29
    if box * xi.bit_length() > KRONECKER_BITS:
        return None
    weights = [prod(radix[i + 1 :]) for i in range(len(radix))]
    gamma = int_gcd(_kron_eval(a0, weights, xi), _kron_eval(b0, weights, xi))
    if gamma == 1:
        return P.poly_const(len(radix), cg)
    cand: Poly = {}
    for k, d in _digits(gamma, xi):
        if k >= box:
            return None
        e, rest = [], k
        for w in weights:
            q, rest = divmod(rest, w)
            e.append(q)
        cand[tuple(e)] = d
    return _verified(cand, a0, b0, cg)


def _heu_gcd(a: Poly, b: Poly):
    """Heuristic GCD of two nonzero polynomials, evaluating the first variable
    either one uses; returns None when no candidate verified."""
    nvars = len(next(iter(a)))
    v = next((v for v in range(nvars) if P.poly_appears(a, v) or P.poly_appears(b, v)), None)
    if v is None:
        return P.poly_const(nvars, int_gcd(next(iter(a.values())), next(iter(b.values()))))

    ca, a0 = _primitive(a)
    cb, b0 = _primitive(b)
    cg = int_gcd(ca, cb)

    xi = 2 * min(_max_norm(a0), _max_norm(b0)) + 29
    for _ in range(6):
        av = _eval_var(a0, v, xi)
        bv = _eval_var(b0, v, xi)
        if av and bv:
            gv = _heu_gcd(av, bv)
            if gv is not None:
                g = _verified(_interp_var(gv, v, xi), a0, b0, cg)
                if g is not None:
                    return g
        xi = 2 * xi + 29
    return None
