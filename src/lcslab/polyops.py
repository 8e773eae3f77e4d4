"""Polynomial operations built on the ``_poly_py`` kernels.

Everything here is exact arithmetic over the integers; even a rational point
is a tuple of integer pairs (``poly_eval``), so loading this module imports
no ``fractions``.  The GCD of two multi-term polynomials tries the
evaluate/reconstruct/verify heuristic (GCDHEU) first: once on the Kronecker
images of both operands (one integer evaluation each; coprime inputs, the
common case when canonicalizing fractions, then cost one integer GCD), then
one variable at a time.  It falls back to a subresultant remainder sequence
when the heuristic gives up.  ``poly_gcd`` is the only entry: it decides the
zero, equal and one-term cases, and the fallback asks it for the GCDs of its
contents, so those are memoised and tried heuristically too.  No routine is
told which variables to work in; each reads them off its operands.  A
heuristic candidate is accepted only after it divides both primitive parts,
which makes it the GCD (``_heugcd`` gives the argument).  Each lives in a
module of its own, imported on first use: ``_heugcd`` by ``_heu_gcd`` on the
first multi-term GCD that misses the memo, ``_subresultant`` by ``_gcd_rec``
on the first fallback.  A command whose GCDs all have a zero, equal or
one-term operand compiles neither, and one whose GCDs all succeed
heuristically (every benchmark input) never compiles the fallback.  Both
call back into this module through its attributes (``P.poly_divexact``),
never through names bound at import, so a wrapper installed here sees their
calls too.  Integer content is folded into the GCD, so canonical fractions
reduce constants as well (2x/2 -> x).  Like the kernels, nothing here writes
to an argument, so a result may be an argument itself.

These functions are the polynomial layer under ``symexpr``, which holds all
fraction arithmetic (the lcm of denominators, the cross-cancelled product,
the canonical form) and is their only caller outside the two GCD modules.
``frame_geometry`` calls none of them; its ``vec_sum`` reads an Expr's
numerator only to test it for zero.

Multi-term GCDs are memoised.  The engine asks for the GCD of the same pair
of multi-term polynomials again and again (on the dense benchmark inputs,
two thirds or more of the multi-term calls of a ``curvature`` run repeat an
earlier pair), so ``poly_gcd`` keeps its results, keyed by the contents of
both operands (a frozenset of each one's terms), the one of smaller hash
first, as ``symexpr`` keys ``+`` and ``*``: the GCD does not depend on the
order, so gcd(b, a) hits the entry gcd(a, b) stored.  A dict lookup
compares keys whose hashes collide by contents, so a collision is a miss,
never a wrong answer.  The memo pins at most ``GCD_MEMO_TERMS`` terms in
all (operands and result), so large operands cannot inflate memory.  Its results are shared, which is safe because
nothing writes to a polynomial once it is built: the kernels and the
functions here never write to an argument, and no caller writes to a result.

Both memos of the engine are ``BoundedMemo`` stores: this one and
``expr_memo``, which ``symexpr`` fills with Expr products, sums and
differences and ``frame_geometry`` with frame derivatives.  Each is bounded
by the terms it pins and is emptied whole when a store would pass its bound.
One reset, ``reset_memos``, empties both; building a manifold
(``ManifoldData``, and the CLI before it parses a definition) calls it,
which makes one manifold's arithmetic independent of whatever ran before it
in the process.  Every entry is exact, so the reset is for determinism and
memory, never for correctness.
"""

from __future__ import annotations

from math import gcd as int_gcd

from ._poly_py import _is_one as poly_is_one
from ._poly_py import (
    poly_add,
    poly_divexact,
    poly_lead,
    poly_mul,
    poly_mul_scalar,
    poly_neg,
    poly_sub,
)

Poly = dict


def poly_const(nvars: int, c: int) -> Poly:
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def poly_var(nvars: int, index: int) -> Poly:
    e = [0] * nvars
    e[index] = 1
    return {tuple(e): 1}


def poly_sorted_terms(a: Poly) -> tuple:
    """Terms sorted graded-lex descending; the canonical storage order."""
    return tuple(sorted(a.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True))


def poly_appears(a: Poly, v: int) -> bool:
    return any(e[v] for e in a)


def normalize_sign(a: Poly) -> Poly:
    """Flip signs so the graded-lex leading coefficient is positive."""
    lead = poly_lead(a)
    if lead is not None and lead[1] < 0:
        return poly_neg(a)
    return a


def poly_pow(a: Poly, k: int, nvars: int) -> Poly:
    if k < 0:
        raise ValueError("negative exponent in polynomial power")
    out = poly_const(nvars, 1)
    base = a
    while k:
        if k & 1:
            out = poly_mul(out, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return out


def poly_diff(a: Poly, v: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        k = e[v]
        if k:
            e2 = e[:v] + (k - 1,) + e[v + 1 :]
            out[e2] = out.get(e2, 0) + c * k
    return {e: c for e, c in out.items() if c}


def poly_eval(a: Poly, values: tuple) -> tuple[int, int]:
    """a at a rational point, one integer pair (p, q), q nonzero, per variable,
    as the pair (numerator, denominator) over the common denominator
    prod q^d, d the largest exponent of each variable in a: a term c x^e
    contributes c prod p^e q^(d-e)."""
    if not a:
        return 0, 1
    tops = tuple(map(max, zip(*a)))
    total = 0
    for e, c in a.items():
        for (p, q), k, top in zip(values, e, tops):
            if top:
                c *= p**k * q ** (top - k)
        total += c
    den = 1
    for (_, q), top in zip(values, tops):
        den *= q**top
    return total, den


def _int_content(a: Poly) -> int:
    g = 0
    for c in a.values():
        g = int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _monomial_gcd(a: Poly, b: Poly) -> Poly:
    """GCD when at least one operand is a single term: the integer content
    GCD times the componentwise-minimal exponent over every term."""
    mins = tuple(map(min, zip(*a, *b)))
    return {mins: int_gcd(_int_content(a), _int_content(b))}


def _gcd_rec(a: Poly, b: Poly) -> Poly:
    """The subresultant GCD of two unequal multi-term polynomials; its module
    is loaded on the first call."""
    from ._subresultant import _gcd_rec

    return _gcd_rec(a, b)


def _heu_gcd(a: Poly, b: Poly):
    """The heuristic GCD of two multi-term polynomials: one try on the
    Kronecker images of both operands, then the per-variable recursion; None
    when no candidate verified.  Its module is loaded on the first call."""
    from ._heugcd import _heu_gcd, _kronecker_gcd

    g = _kronecker_gcd(a, b)
    return g if g is not None else _heu_gcd(a, b)


# -- bounded memos -------------------------------------------------------------


class BoundedMemo:
    """Results keyed by their operands, bounded by the terms they pin.

    ``entries`` maps a key to its stored value; the caller looks up with
    ``entries.get`` and stores with ``store``, passing the terms the entry
    pins.  An entry larger than the whole budget is not stored.  A store
    that would pass the budget first empties the memo (clear on overflow):
    a hit then costs one dict lookup and nothing else, where a least
    recently used order would cost bookkeeping on every hit.
    """

    def __init__(self, max_terms: int):
        self.max_terms = max_terms
        self.entries: dict = {}
        self.terms = 0

    def clear(self) -> None:
        self.entries.clear()
        self.terms = 0

    def store(self, key, value, terms: int) -> None:
        if terms > self.max_terms:
            return
        if self.terms + terms > self.max_terms:
            self.clear()
        self.entries[key] = value
        self.terms += terms


GCD_MEMO_TERMS = 4096
EXPR_MEMO_TERMS = 65536

# multi-term GCDs keyed by both operands' contents, in hash order
_memo = BoundedMemo(GCD_MEMO_TERMS)
# Expr products, sums, differences and frame derivatives, filled by symexpr
# and frame_geometry; its keys and values are theirs
expr_memo = BoundedMemo(EXPR_MEMO_TERMS)


def reset_memos() -> None:
    """Forget every memoised GCD, Expr operation and frame derivative."""
    _memo.clear()
    expr_memo.clear()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over the integers (content included), leading coefficient positive."""
    if not a:
        return normalize_sign(b)
    if not b:
        return normalize_sign(a)
    if a == b:
        return normalize_sign(a)
    if len(a) == 1 or len(b) == 1:
        return _monomial_gcd(a, b)
    ka, kb = frozenset(a.items()), frozenset(b.items())
    key = (ka, kb) if hash(ka) <= hash(kb) else (kb, ka)
    g = _memo.entries.get(key)
    if g is None:
        g = _heu_gcd(a, b)
        if g is None:
            g = _gcd_rec(a, b)
        _memo.store(key, g, len(a) + len(b) + len(g))
    return g

