"""Correctness of the polynomial kernels and the GCD."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab import _poly_py, cli, polyops
from lcslab.polyops import _gcd_rec, _heu_gcd, poly_divexact, poly_gcd, poly_mul, poly_mul_scalar, poly_pow

from conftest import ad_hoc

DIVEXACTS = [pytest.param(_poly_py.poly_divexact, id="_poly_py")]


def random_poly(rng, nterms=4, nvars=3, maxexp=2, maxcoef=6):
    out = {}
    for _ in range(nterms):
        c = rng.randint(-maxcoef, maxcoef)
        if c:
            out[tuple(rng.randint(0, maxexp) for _ in range(nvars))] = c
    return out


@pytest.mark.parametrize(
    "a",
    [{(2, 0, 1): 3, (0, 1, 0): -5, (0, 0, 0): 7}, {(1, 0, 0): -2}, {(0, 0, 0): 1}],
    ids=["three-terms", "one-term", "one"],
)
def test_mul_by_one_returns_other_operand(a):
    one = {(0, 0, 0): 1}
    before = dict(a)
    for product in (_poly_py.poly_mul(a, one), _poly_py.poly_mul(one, a)):
        assert product == before
        assert product is a or product is one  # an operand, not a copy
    assert a == before and one == {(0, 0, 0): 1}


def test_divexact_inverts_mul():
    rng = random.Random(7)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        if not a or not b:
            continue
        assert poly_divexact(poly_mul(a, b), b) == a


def random_monomial(rng, nvars=3, maxexp=2):
    c = rng.choice([-1, 1]) * rng.randint(2, 9)
    return {tuple(rng.randint(0, maxexp) for _ in range(nvars)): c}


@pytest.mark.parametrize("divexact", DIVEXACTS)
def test_divexact_by_one_term_inverts_mul(divexact):
    rng = random.Random(19)
    for _ in range(200):
        a = random_poly(rng)
        m = random_monomial(rng)
        assert divexact(poly_mul(a, m), m) == a


@pytest.mark.parametrize("divexact", DIVEXACTS)
def test_divexact_by_one_leaves_dividend_unchanged(divexact):
    a = {(2, 0, 1): 3, (0, 1, 0): -5, (0, 0, 0): 7}
    before = dict(a)
    assert divexact(a, {(0, 0, 0): 1}) == before
    assert a == before


@pytest.mark.parametrize("divexact", DIVEXACTS)
@pytest.mark.parametrize(
    "b",
    [{(0, 2, 0): 1}, {(1, 0, 0): 3}, {(0, 0, 0): 4}],
    ids=["larger-exponent", "non-dividing-coefficient", "non-dividing-constant"],
)
def test_divexact_by_one_term_raises_when_inexact(divexact, b):
    a = {(2, 1, 0): 6, (1, 0, 0): 2}
    with pytest.raises(ValueError, match="inexact polynomial division"):
        divexact(a, b)


def test_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        if not a or not b:
            continue
        g = poly_gcd(a, b)
        poly_divexact(a, g)
        poly_divexact(b, g)


def test_gcd_of_products_contains_common_factor():
    rng = random.Random(13)
    checked = 0
    for _ in range(150):
        a = random_poly(rng, nterms=3)
        b = random_poly(rng, nterms=3)
        c = random_poly(rng, nterms=3)
        if not a or not b or not c:
            continue
        g = poly_gcd(poly_mul(a, c), poly_mul(b, c))
        poly_divexact(g, c)  # c | gcd(a c, b c), so this must be exact
        checked += 1
    assert checked > 80


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0 x1 x2")

    def to_sympy(p):
        total = sympy.Integer(0)
        for e, c in p.items():
            term = sympy.Integer(c)
            for s, k in zip(xs, e):
                term *= s**k
            total += term
        return sympy.Poly(total, *xs) if total != 0 else None

    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        a = random_poly(rng, nterms=3)
        b = random_poly(rng, nterms=3)
        c = random_poly(rng, nterms=2)
        if not a or not b or not c:
            continue
        ac, bc = poly_mul(a, c), poly_mul(b, c)
        ours = to_sympy(poly_gcd(ac, bc))
        theirs = sympy.Poly(sympy.gcd(to_sympy(ac).as_expr(), to_sympy(bc).as_expr()), *xs)
        assert ours is not None
        diff = (ours.as_expr() - theirs.as_expr()).expand()
        assert diff == 0 or (ours.as_expr() + theirs.as_expr()).expand() == 0
        checked += 1
    assert checked > 50


def test_prs_fallback_agrees_with_heuristic():
    # the subresultant remainder sequence is only consulted when the
    # heuristic gives up; exercise it directly against poly_gcd
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        a = random_poly(rng, nterms=3, maxexp=2)
        b = random_poly(rng, nterms=3, maxexp=2)
        c = random_poly(rng, nterms=2, maxexp=1)
        if not a or not b or not c:
            continue
        ac, bc = poly_mul(a, c), poly_mul(b, c)
        assert _gcd_rec(ac, bc, (0, 1, 2)) == poly_gcd(ac, bc)
        checked += 1
    assert checked > 40


def test_gcd_exact_known_cases():
    # gcd includes integer content
    assert poly_gcd({(1, 0, 0): 2}, {(0, 0, 0): 2}) == {(0, 0, 0): 2}
    # leading-coefficient sign is normalized to positive
    g = poly_gcd({(1, 0, 0): -1, (0, 0, 0): -1}, {(2, 0, 0): -1, (0, 0, 0): 1})
    assert g == {(1, 0, 0): 1, (0, 0, 0): 1}
    # monomial fast path
    assert poly_gcd({(3, 1, 0): 4}, {(1, 2, 2): 6, (2, 1, 1): 2}) == {(1, 1, 0): 2}


@pytest.mark.parametrize(
    "gcd", [poly_gcd, lambda a, b: _gcd_rec(a, b, (0, 1, 2))], ids=["poly_gcd", "_gcd_rec"]
)
def test_gcd_leaves_operands_unchanged(gcd):
    # results may be an operand itself (nothing copies), so no path may
    # write to one: equal operands, a zero operand, a negative lead, a
    # content free of the leading variable, random pairs with a common factor
    p = {(2, 0, 1): 3, (0, 1, 0): -5, (0, 0, 0): 7}
    neg = {(1, 1, 0): -2, (0, 0, 1): 4}
    free_of_x = {(0, 2, 0): 1, (0, 0, 1): -3}
    cases = [(p, p), (p, dict(p)), (p, {}), ({}, neg), (neg, neg), (free_of_x, poly_mul(free_of_x, p))]
    rng = random.Random(31)
    for _ in range(40):
        c = random_poly(rng, nterms=2, maxexp=1)
        cases.append((poly_mul(random_poly(rng), c), poly_mul(random_poly(rng), c)))
    for a, b in cases:
        before = (dict(a), dict(b))
        gcd(a, b)
        assert (a, b) == before
    assert poly_gcd(p, p) is p and poly_gcd({}, p) is p  # shared, not copied


# -- the memo of multi-term GCDs ----------------------------------------------

VS = (0, 1, 2)
exponents = st.tuples(*[st.integers(0, 2)] * 3)
coefficients = st.integers(-5, 5).filter(bool)
multi_term = st.dictionaries(exponents, coefficients, min_size=2, max_size=4)


def uncached_gcd(a, b):
    g = _heu_gcd(a, b, VS)
    return g if g is not None else _gcd_rec(a, b, VS)


@given(st.integers(1, 6), multi_term, st.integers(1, 3), multi_term, multi_term, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_memoised_gcd_equals_uncached_gcd(c, f, k, u, v, j):
    # c f^k u and f^j v share the factor f^min(j,k) and the content gcd(c, .)
    a = poly_mul_scalar(poly_mul(poly_pow(f, k, 3), u), c)
    b = poly_mul(poly_pow(f, j, 3), v)
    expected = uncached_gcd(a, b)
    assert expected == uncached_gcd(b, a)
    # equal contents in distinct dicts, one built in the reverse order
    a_copy, b_copy = dict(reversed(list(a.items()))), dict(b)
    for x, y in ((a, b), (a, b), (b, a), (a_copy, b_copy), (b_copy, a_copy), (a, b)):
        assert poly_gcd(x, y) == expected
    assert (a, b) == (a_copy, b_copy)


def test_memo_hit_needs_equal_operands():
    # the key is both operands' contents, in order: equal contents in new
    # dicts hit, and a key whose hash collides with a stored one is a miss
    # (hash(-1) == hash(-2) in CPython, so a and c hash alike)
    memo = polyops._memo
    polyops.reset_memos()
    a, b = {(1, 0, 0): 1, (0, 0, 0): -1}, {(1, 0, 0): 1, (0, 1, 0): 1}
    c = {(1, 0, 0): 1, (0, 0, 0): -2}
    g = poly_gcd(a, b)
    assert poly_gcd(dict(a), dict(b)) is g and len(memo.entries) == 1
    assert hash((frozenset(a.items()), frozenset(b.items()))) == hash((frozenset(c.items()), frozenset(b.items())))
    assert poly_gcd(c, b) == uncached_gcd(c, b) and len(memo.entries) == 2
    assert poly_gcd(b, a) == g and len(memo.entries) == 3
    assert memo.terms == 3 * (2 + 2 + 1)


def pinned_terms(memo) -> int:
    return sum(len(a) + len(b) + len(g) for (a, b), g in memo.entries.items())


def test_memo_keeps_its_term_budget(monkeypatch):
    data = ad_hoc("dense-style")
    cli.run("curvature", data, {})
    memo = polyops._memo
    assert memo.entries  # the dense-style run makes multi-term GCDs
    assert memo.terms == pinned_terms(memo) <= polyops.GCD_MEMO_TERMS

    # a budget far below the run's needs: clears keep it after every store
    tight = polyops.BoundedMemo(60)
    store, stored = tight.store, []

    def checked_store(key, value, terms):
        store(key, value, terms)
        stored.append(terms)
        assert tight.terms == pinned_terms(tight) <= 60

    tight.store = checked_store
    monkeypatch.setattr(polyops, "_memo", tight)
    cli.run("curvature", ad_hoc("dense-style"), {})
    assert sum(stored) > 60


def test_no_gcd_operand_is_written_afterwards(monkeypatch):
    # the memo keeps references to operands and results: a caller that
    # later wrote to one would corrupt a stored entry
    seen = []

    def recording_gcd(a, b, gcd=polyops.poly_gcd):
        g = gcd(a, b)
        seen.append(((a, dict(a)), (b, dict(b)), (g, dict(g))))
        return g

    monkeypatch.setattr(polyops, "poly_gcd", recording_gcd)
    for command in ("curvature", "derived-conditions"):
        data = ad_hoc("dense-style")
        cli.run(command, data, {})
    data.nabla_riemann  # the full tensor, as check and fit SGR|SGPR read it
    assert len(seen) > 1000
    assert all(p == before for call in seen for p, before in call)
