"""Correctness of the polynomial kernels and the GCD."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab import _heugcd, _poly_py, cli, polyops
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


def test_gcd_falls_back_to_the_subresultant_when_the_heuristic_gives_up(monkeypatch):
    # no test or benchmark input makes the heuristic give up; stubbed to,
    # every multi-term GCD takes the fallback once, and its result is memoised
    monkeypatch.setattr(polyops, "_heu_gcd", lambda a, b, vs: None)
    monkeypatch.setattr(polyops, "_memo", polyops.BoundedMemo(polyops.GCD_MEMO_TERMS))
    fallbacks = []

    def counting_rec(a, b, vs, rec=polyops._gcd_rec):
        fallbacks.append(vs)
        return rec(a, b, vs)

    monkeypatch.setattr(polyops, "_gcd_rec", counting_rec)
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        a, b, c = (random_poly(rng, nterms=3) for _ in range(3))
        ac, bc = poly_mul(a, c), poly_mul(b, c)
        if len(ac) < 2 or len(bc) < 2 or ac == bc:
            continue
        g = poly_gcd(ac, bc)
        assert fallbacks == [(0, 1, 2)]
        assert g == _gcd_rec(ac, bc, (0, 1, 2))
        assert up_to_sign(g, sympy_gcd(ac, bc, 3))
        assert poly_gcd(dict(ac), dict(bc)) is g and len(fallbacks) == 1
        fallbacks.clear()
        checked += 1
    assert checked > 30


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


def memo_key(a, b):
    """The GCD memo's key: both operands' contents, the smaller hash first."""
    return tuple(sorted((frozenset(a.items()), frozenset(b.items())), key=hash))


def test_memo_hit_needs_equal_operands():
    # the key is both operands' contents in hash order, as the Expr memo
    # keys + and *: equal contents in new dicts hit, so does the swapped
    # pair (the GCD does not depend on the order), and a key whose hash
    # collides with a stored one is a miss (hash(-1) == hash(-2) in CPython,
    # so a and c hash alike)
    memo = polyops._memo
    polyops.reset_memos()
    a, b = {(1, 0, 0): 1, (0, 0, 0): -1}, {(1, 0, 0): 1, (0, 1, 0): 1}
    c = {(1, 0, 0): 1, (0, 0, 0): -2}
    g = poly_gcd(a, b)
    assert poly_gcd(dict(a), dict(b)) is g and len(memo.entries) == 1
    assert poly_gcd(b, a) is g and len(memo.entries) == 1
    assert hash(memo_key(a, b)) == hash(memo_key(c, b))
    assert poly_gcd(c, b) == uncached_gcd(c, b) and len(memo.entries) == 2
    assert memo.terms == 2 * (2 + 2 + 1)


def test_memo_key_holds_both_operands():
    # a, b and c pairwise share a different factor, so the three GCDs
    # differ, and a key that kept one operand of each pair would serve one
    # pair the GCD of another (the operand of smallest hash is in two pairs)
    x1, y1, z1 = ({(1, 0, 0): 1, (0, 0, 0): 1}, {(0, 1, 0): 1, (0, 0, 0): 1}, {(0, 0, 1): 1, (0, 0, 0): 1})
    a, b, c = poly_mul(x1, y1), poly_mul(y1, z1), poly_mul(x1, z1)
    polyops.reset_memos()
    for u, v, common in ((a, b, y1), (a, c, x1), (b, c, z1), (b, a, y1), (c, a, x1), (c, b, z1)):
        assert poly_gcd(u, v) == common == uncached_gcd(u, v)
    assert len(polyops._memo.entries) == 3


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


# -- the Kronecker step of the heuristic GCD -----------------------------------


def sympy_gcd(a, b, nvars):
    """gcd(a, b) over the integers by sympy, as an exponent dict."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{nvars}")
    g = sympy.Poly(a, *xs).gcd(sympy.Poly(b, *xs))
    return {e: int(c) for e, c in g.terms()}


def up_to_sign(p, q):
    return p == q or p == poly_mul_scalar(q, -1)


def recursion_gcd(a, b):
    """The per-variable heuristic and, when it gives up, the subresultant."""
    vs = tuple(range(len(next(iter(a)))))
    g = _heugcd._heu_gcd(a, b, vs)
    return g if g is not None else _gcd_rec(a, b, vs)


def kronecker_image(p, q):
    """gamma = gcd(K(p)(xi), K(q)(xi)) as the Kronecker step forms it."""
    (_, p0), (_, q0) = _heugcd._primitive(p), _heugcd._primitive(q)
    radix = [max(s, t) + 1 for s, t in zip(map(max, zip(*p0)), map(max, zip(*q0)))]
    weights = [math.prod(radix[i + 1 :]) for i in range(len(radix))]
    xi = 2 * min(max(map(abs, p0.values())), max(map(abs, q0.values()))) + 29
    return xi, math.gcd(_heugcd._kron_eval(p0, weights, xi), _heugcd._kron_eval(q0, weights, xi))


def test_kronecker_coprime_images_give_the_content():
    # gamma = 1: the GCD is the content GCD, with no candidate to divide by
    a = {(1, 0, 0): 6, (0, 1, 1): 9, (0, 0, 0): 3}
    b = {(2, 0, 0): 4, (0, 0, 1): -10}
    assert kronecker_image(a, b)[1] == 1
    assert _heugcd._kronecker_gcd(a, b) == {(0, 0, 0): 1}
    a6, b6 = poly_mul_scalar(a, 4), poly_mul_scalar(b, 6)  # contents 12 and 12
    assert _heugcd._kronecker_gcd(a6, b6) == {(0, 0, 0): 12} == sympy_gcd(a6, b6, 3) == recursion_gcd(a6, b6)


@pytest.mark.parametrize(
    "f, u, v",
    [
        # a nontrivial GCD with content: 6 f u and 4 f v share 2 f
        ({(1, 1, 0): 1, (0, 0, 2): -3, (0, 0, 0): 2}, {(1, 0, 0): 3, (0, 1, 0): 3}, {(0, 0, 1): 2, (0, 0, 0): -1}),
        # products whose cross terms cancel: f u = (x+1)^2 - y^2 loses xy,
        # f v loses x^2 y and x y^2
        (
            {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): 1},
            {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 1},
            {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 1): 1},
        ),
        # a negative lead and a factor free of the first variable
        ({(0, 2, 1): -2, (0, 0, 0): 3}, {(2, 0, 0): 1, (0, 1, 0): -1}, {(1, 0, 1): 5, (0, 0, 0): 1}),
        # six variables: x0 x5 - 2 x2 + 1 times x1 + x3 and times x4 - 3
        (
            {(1, 0, 0, 0, 0, 1): 1, (0, 0, 1, 0, 0, 0): -2, (0,) * 6: 1},
            {(0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0): 1},
            {(0, 0, 0, 0, 1, 0): 1, (0,) * 6: -3},
        ),
    ],
    ids=["content", "cancelling", "negative-lead", "six-variables"],
)
def test_kronecker_gcd_is_the_gcd(f, u, v):
    # u and v are coprime, so gcd(6 f u, 4 f v) = 2 f up to sign
    a = poly_mul_scalar(poly_mul(f, u), 6)
    b = poly_mul_scalar(poly_mul(f, v), 4)
    assert kronecker_image(a, b)[1] > 1
    g = _heugcd._kronecker_gcd(a, b)
    assert up_to_sign(g, poly_mul_scalar(f, 2))
    assert g == recursion_gcd(a, b)
    assert up_to_sign(g, sympy_gcd(a, b, len(next(iter(f)))))


six_exponents = st.tuples(*[st.integers(0, 1)] * 6)
six_vars = st.dictionaries(six_exponents, coefficients, min_size=1, max_size=3)


@given(six_vars, six_vars, six_vars, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_kronecker_gcd_in_six_variables(f, u, v, c):
    # boxes of up to 3^6 exponents: those within the bound take the
    # Kronecker step, the rest go straight to the recursion
    a, b = poly_mul_scalar(poly_mul(f, u), c), poly_mul(f, v)
    if len(a) < 2 or len(b) < 2:
        return
    expected = recursion_gcd(a, b)
    assert up_to_sign(expected, sympy_gcd(a, b, 6))
    g = _heugcd._kronecker_gcd(a, b)
    assert g is None or g == expected
    assert _heu_gcd(a, b, tuple(range(6))) == expected


def test_kronecker_candidate_that_does_not_divide_goes_to_the_recursion(monkeypatch):
    # x - y and x y - 1 are coprime, yet their images X^2 - X and X^3 - 1
    # share X - 1: the candidate y - 1 divides neither operand, so the
    # Kronecker step gives up and the recursion returns 1
    a = {(1, 0, 0): 1, (0, 1, 0): -1}
    b = {(1, 1, 0): 1, (0, 0, 0): -1}
    xi, gamma = kronecker_image(a, b)
    assert gamma == xi - 1
    divisors = []

    def recording_divexact(p, q, divexact=polyops.poly_divexact):
        divisors.append(q)
        return divexact(p, q)

    monkeypatch.setattr(polyops, "poly_divexact", recording_divexact)
    assert _heugcd._kronecker_gcd(a, b) is None
    assert divisors == [{(0, 1, 0): 1, (0, 0, 0): -1}]
    assert _heu_gcd(a, b, (0, 1, 2)) == {(0, 0, 0): 1} == sympy_gcd(a, b, 3)


def test_recursion_candidate_that_does_not_divide_is_refused(monkeypatch):
    # y - x^2 and y^2 - x y^2 are coprime, yet at x = y = 31 the first is
    # -30 * 31 and the second 31^2: the recursion's first candidate, y,
    # divides only the second, so it is refused and the recursion returns 1
    a = {(0, 1): 1, (2, 0): -1}
    b = {(0, 2): 1, (1, 2): -1}
    divisors = []

    def recording_divexact(p, q, divexact=polyops.poly_divexact):
        divisors.append(q)
        return divexact(p, q)

    monkeypatch.setattr(polyops, "poly_divexact", recording_divexact)
    assert _heugcd._heu_gcd(a, b, (0, 1)) == {(0, 0): 1} == sympy_gcd(a, b, 2)
    assert divisors[0] == {(0, 1): 1}


@pytest.mark.parametrize("power, divisors", [(1, [{(1, 0, 0): 1}]), (2, [])], ids=["last-in-box", "at-the-box"])
def test_kronecker_digit_at_the_box_gives_up_undivided(monkeypatch, power, divisors):
    # x + 1 and x - 1 have the box {1, x} of 2 exponents.  Images stubbed to
    # xi^power put the integer GCD's one digit at X^power: X^1 reads back as
    # the candidate x, which is divided by and refused; X^2 is past the box,
    # so the step gives up before any division
    a = {(1, 0, 0): 1, (0, 0, 0): 1}
    b = {(1, 0, 0): 1, (0, 0, 0): -1}
    monkeypatch.setattr(_heugcd, "_kron_eval", lambda p, weights, xi: xi**power)
    seen = []

    def recording_divexact(p, q, divexact=polyops.poly_divexact):
        seen.append(q)
        return divexact(p, q)

    monkeypatch.setattr(polyops, "poly_divexact", recording_divexact)
    assert _heugcd._kronecker_gcd(a, b) is None
    assert seen == divisors


@pytest.mark.parametrize(
    "a, b",
    [
        # a box of 6^3 = 216 exponents: past the bound at any xi
        ({(5, 5, 5): 1, (0, 0, 0): -1}, {(5, 0, 0): 1, (0, 5, 5): 1}),
        # a box of 8 exponents, but xi has some 200 bits
        ({(1, 1, 1): 3**130, (0, 0, 0): 1}, {(1, 0, 0): 5**90, (0, 1, 1): 7}),
    ],
    ids=["wide-box", "large-xi"],
)
def test_input_above_the_bound_reaches_the_recursion_unevaluated(monkeypatch, a, b):
    def no_evaluation(*args):
        raise AssertionError("the Kronecker image was evaluated")

    monkeypatch.setattr(_heugcd, "_kron_eval", no_evaluation)
    assert _heugcd._kronecker_gcd(a, b) is None
    assert _heu_gcd(a, b, (0, 1, 2)) == recursion_gcd(a, b)
