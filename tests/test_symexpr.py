import copy
import operator
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab import polyops
from lcslab.symexpr import (
    MAX_NESTING,
    MAX_TERMS,
    Expr,
    ExprDivisionError,
    ExprError,
    ExprSyntaxError,
    PoleError,
    UnknownVariableError,
    Var,
    parse,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
VS = (X, Y, Z)


def e(text: str) -> Expr:
    return parse(text, VS)


class TestParse:
    def test_simple_reciprocal(self):
        assert e("-1/z") == Expr.constant(VS, -1) / Expr.variable(VS, Z)

    def test_common_denominator(self):
        assert e("z^2 - 1/z^2") == e("(z^4 - 1)/z^2")

    def test_cancellation_to_zero(self):
        assert e("z*(x+y) - z*x - z*y").is_zero

    def test_negative_exponent(self):
        assert e("z^-2") == e("1/z^2")

    def test_whitespace_and_nesting(self):
        assert e(" ( x + y ) * ( x - y ) ") == e("x^2 - y^2")

    def test_power_binds_before_product(self):
        assert e("2*z^3") == 2 * e("z") ** 3

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            e("x + * y")
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError) as err:
            e("x + w")
        assert err.value.name == "w"

    def test_division_by_zero_literal(self):
        with pytest.raises(ExprDivisionError):
            e("1/0")

    def test_division_by_vanishing_expression(self):
        with pytest.raises(ExprDivisionError):
            e("1/(x - x)")

    def test_exponent_must_be_integer(self):
        with pytest.raises(ExprSyntaxError):
            e("x^y")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            e("x + 1)")

    @pytest.mark.parametrize("opener", ["(", "-"])
    def test_nesting_is_bounded(self, opener):
        text = opener * 5000 + "x" + (")" * 5000 if opener == "(" else "")
        with pytest.raises(ExprSyntaxError) as err:
            e(text)
        assert err.value.position == MAX_NESTING

    def test_ordinary_nesting_parses(self):
        assert e("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == e("x")
        assert e("-" * MAX_NESTING + "x") == e("x")
        assert e("-(" * 40 + "x" + ")" * 40) == e("x")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(x+y+z+1)^40/(x-y)^40", 10),  # a power, refused before it is expanded
            ("(x+y+z+1)^12*(x+y+z+1)^12", 13),  # 455 terms each side, 2,925 in the product
            ("(x+y+z+1)^12/(x+y+z+2)^12 + x", 27),  # 910 terms, and a sum over a common denominator
            ("(x^2000-1)/(x-1)", 16),  # 4 terms before cancelling, 2,000 after: checked on the result
        ],
    )
    def test_size_budget(self, text, position):
        with pytest.raises(ExprSyntaxError, match=f"larger than {MAX_TERMS} terms") as err:
            e(text)
        assert err.value.position == position

    def test_size_budget_counts_terms_not_factors(self):
        # ten factors, one per degree: 286 terms, within the budget
        assert e("*".join(["(x+y+z+1)"] * 10)) == e("(x+y+z+1)^10")
        assert e("x^400*y^400/z^400").size == 2
        assert e("(x^30-1)/(x-1)").size == 31
        assert e("0^0") == e("1") and e("x^1000000000*0") == e("0")


class TestArith:
    def test_add_cancels(self):
        assert (e("-1/z") + e("1/z")).is_zero

    def test_mul_squares_alpha(self):
        assert e("-1/z") * e("-1/z") == e("1/z^2")

    def test_sub_gives_two_over_z2(self):
        assert e("1/z^2") - e("-1/z^2") == e("2/z^2")

    def test_neg_and_pow(self):
        assert -e("x") == e("-x")
        assert e("z") ** -2 == e("1/z^2")

    def test_fraction_operand_is_a_constant(self):
        assert e("x") + Fraction(1, 2) == Fraction(1, 2) + e("x") == e("x + 1/2")

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_float_operand_is_refused(self, op):
        with pytest.raises(TypeError):
            op(e("x"), 1.5)

    def test_equality_with_a_string_is_false(self):
        assert (e("x") == "x") is False
        assert e("x") != "x"

    def test_non_integer_exponent_is_refused(self):
        with pytest.raises(ExprError, match="^exponent must be an integer$"):
            e("x") ** 1.5

    def test_zero_to_a_positive_power_is_zero(self):
        zero = e("0^2")
        assert zero.is_zero and str(zero) == "0"

    def test_repr_quotes_the_printed_form(self):
        assert repr(e("2*x/z")) == "Expr('2*x/z')"

    def test_negative_power_of_a_negative_lead(self):
        # the reciprocal puts the base's numerator, lead -x, in the
        # denominator; the sign step moves the minus up, as 1/(1 - x) has it
        assert e("1 - x") ** -1 == e("1/(1 - x)")
        assert str(e("1 - x") ** -1) == "-1/(x - 1)"
        assert e("1 - x") ** -3 == e("1/(1 - x)^3")
        assert str(e("1 - x") ** -3) == "-1/(x^3 - 3*x^2 + 3*x - 1)"
        assert e("y/(1 - x)") ** -1 == e("(1 - x)/y")
        assert str(e("y/(1 - x)") ** -1) == "(-x + 1)/y"

    def test_every_fraction_step_leads_its_denominator_positive(self):
        # the one sign step: a fraction built whole, a quotient by a negative
        # lead and a negative power each move the minus to the numerator
        built = Expr((X,), {(0,): 1}, {(1,): -1, (0,): 1})
        assert str(built) == "-1/(x - 1)" == str(e("1") / e("1 - x")) == str(e("1 - x") ** -1)
        assert str(e("x/(y + 1)") / e("-y - 1")) == "-x/(y^2 + 2*y + 1)"

    def test_products_and_quotients_cancel_across(self):
        # a product cancels its left numerator against the right denominator
        # (first GCD) and its right numerator against the left denominator
        # (second GCD); a quotient multiplies by the reciprocal
        assert e("(y + 1)/x") * e("z/(y + 1)") == e("z/x")
        assert e("x/(x + 1)") * e("(x + 1)/y") == e("x/y")
        assert e("x/(y + 1)") / e("z/(y + 1)") == e("x/z")
        assert e("x^2/(y + 1)") / e("x/(y + 1)^2") == e("x*y + x")

    def test_division_by_one_is_the_dividend(self, monkeypatch):
        # 1 is free for / as it is for *: x / 1 is x itself and calls no
        # polynomial kernel; a divisor whose numerator alone is 1 is not 1
        x = e("x/(y + 1)")

        def refused(*args):
            raise AssertionError("a kernel was called")

        with monkeypatch.context() as patched:
            for name in ("poly_gcd", "poly_mul", "poly_divexact", "poly_neg"):
                patched.setattr(polyops, name, refused)
            assert x / e("1") is x and x / 1 is x
        assert x / e("1/z") == x * e("z") == e("x*z/(y + 1)")

    def test_division_by_minus_one_is_the_negation(self, monkeypatch):
        # -1 is a negation: x / -1 is -x and calls no kernel but the negation
        x = e("x/(y + 1)")

        def refused(*args):
            raise AssertionError("a kernel was called")

        with monkeypatch.context() as patched:
            for name in ("poly_gcd", "poly_mul", "poly_divexact"):
                patched.setattr(polyops, name, refused)
            assert x / e("-1") == -x and x / -1 == -x
        assert x / e("-1/z") == x * e("-z") == e("-x*z/(y + 1)")

    def test_pow_zero_exponent(self):
        assert e("x + 1") ** 0 == e("1")

    def test_pow_negative_of_zero(self):
        with pytest.raises(ExprDivisionError):
            e("0") ** -1

    def test_divide_by_zero(self):
        with pytest.raises(ExprDivisionError):
            e("1") / e("x - x")

    def test_int_coercion(self):
        assert 2 * e("z") + 1 == e("2*z + 1")

    def test_mixed_contexts_rejected(self):
        other = parse("t", (Var("t"),))
        with pytest.raises(ExprError):
            e("x") + other


class TestDiff:
    def test_reciprocal(self):
        assert e("-1/z").diff(Z) == e("1/z^2")

    def test_reciprocal_square(self):
        assert e("-1/z^2").diff(Z) == e("2/z^3")

    def test_product(self):
        assert e("x*y").diff(X) == e("y")

    def test_quotient_rule(self):
        assert e("x/(z + 1)").diff(Z) == e("-x/(z^2 + 2*z + 1)")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            e("x").diff(Var("w"))


class TestIsZero:
    def test_zero(self):
        assert e("0").is_zero

    def test_nonzero(self):
        assert not e("(z^4 - 1)/z^2").is_zero

    def test_exact_cancellation(self):
        assert e("z*(1/z) - 1").is_zero


class TestEval:
    def test_reciprocal(self):
        assert e("-1/z").eval({"z": 3, "x": 0, "y": 0}) == Fraction(-1, 3)

    def test_rational_value(self):
        assert e("(z^4 - 1)/z^2").eval({X: 1, Y: 1, Z: 2}) == Fraction(15, 4)

    def test_pole(self):
        with pytest.raises(PoleError):
            e("1/z").eval({"x": 1, "y": 1, "z": 0})

    def test_fraction_points(self):
        assert e("x + y/2").eval({"x": Fraction(1, 3), "y": 1, "z": 5}) == Fraction(5, 6)

    def test_missing_variable(self):
        with pytest.raises(ExprError):
            e("x").eval({"x": 1, "y": 2})

    def test_variable_outside_the_tuple(self):
        with pytest.raises(UnknownVariableError, match="^unknown variable 'w'$"):
            e("x").eval({"x": 1, "y": 2, "z": 3, "w": 4})


class TestCanonicalForm:
    def test_integer_content_reduced(self):
        assert e("(2*x + 2)/2") == e("x + 1")

    def test_polynomial_gcd_reduced(self):
        assert e("(x^2 - 1)/(x - 1)") == e("x + 1")

    def test_denominator_sign_normalized(self):
        assert str(e("1/-z")) == "-1/z"
        assert str(e("x/(1 - z) + 0")) == str(e("x/(1 - z)"))

    def test_equality_is_structural(self):
        a = e("(z^4 - 1)/z^2")
        b = e("z^2 - 1/z^2")
        assert a == b and hash(a) == hash(b)

    def test_identity_ignores_insertion_order(self):
        a = e("(x + y)^3/(x*z - z^2 + 1)")
        b = Expr._raw(a.vars, dict(reversed(a.num.items())), dict(reversed(a.den.items())))
        assert list(b.num) != list(a.num)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)

    def test_rebuild_is_idempotent(self):
        a = e("(x + y)^3/(x*z - z^2)")
        again = Expr(a.vars, dict(a.num), dict(a.den))
        assert again == a and again.num == a.num and again.den == a.den


class TestVar:
    def test_interned(self):
        assert Var("x") is Var("x") is X and Var(name="y") is Y
        assert Var("x") is not Var("y")

    def test_invalid_name_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid variable name"):
                Var("1x")

    # texts around the name grammar: non-ASCII letters and digits, '_', a
    # trailing newline, and characters outside it
    @pytest.mark.parametrize(
        "name",
        ["x", "X1", "x_1", "ab__", "z9_Z", "_x", "1x", "", "_", "x\n", "\n", "x ", "x-y", "x.y", "é", "xé", "\u017f", "\u212a"]
        + ["x²", "x١", "١", "xＡ", "Ａ"],
    )
    def test_name_grammar_is_the_pattern_it_replaced(self, name):
        # the model: the pattern Var matched names with before its str tests
        valid = re.match(r"[A-Za-z][A-Za-z0-9_]*\Z", name) is not None
        try:
            Var(name)
        except ValueError:
            assert not valid
        else:
            assert valid

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.name = "w"
        with pytest.raises(AttributeError):
            del X.name
        assert X.name == "x"

    def test_text_forms(self):
        assert repr(Var("x")) == "Var(name='x')" and str(Var("x")) == "x"

    def test_copies_are_the_interned_instance(self):
        assert copy.copy(X) is X and copy.deepcopy(X) is X and pickle.loads(pickle.dumps(X)) is X

    def test_zero_lookup_by_fresh_vars(self):
        assert Expr.zero((X, Y)) is Expr.zero((Var("x"), Var("y")))


class TestZero:
    def test_zero_is_interned(self):
        assert Expr.zero(VS) is Expr.zero(VS)
        assert Expr.constant(VS, 0) is Expr.zero(VS)
        assert Expr.zero(list(VS)) is Expr.zero(VS)

    def test_zero_absorbs(self):
        x, zero = e("x/(y + 1)"), Expr.zero(VS)
        assert x + zero is x and zero + x is x and x - zero is x
        assert x + 0 is x and 0 + x is x
        assert zero - x == -x
        assert (zero * x).is_zero and (x * zero).is_zero and (-zero).is_zero
        assert (zero / x).is_zero

    def test_cancellation_gives_the_interned_zero(self):
        assert e("x/(y + 1)") - e("x/(y + 1)") is Expr.zero(VS)
        assert e("1/(x*y)") - e("1/(x*y)") is Expr.zero(VS)
        assert e("x/(y + 1)").diff(Z) is Expr.zero(VS)

    def test_zero_from_init_is_still_zero(self):
        z = Expr(VS, {}, {(0, 1, 0): 3})
        assert z.is_zero and z == Expr.zero(VS) and hash(z) == hash(Expr.zero(VS))
        assert z + e("x") == e("x") and (z * e("x")).is_zero


# -- property tests ----------------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6).filter(lambda c: c != 0)
exponents = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(3)))
polys = st.dictionaries(exponents, coeffs, max_size=4)
nonzero_polys = polys.filter(lambda p: any(p.values()))


@st.composite
def expressions(draw):
    num = draw(polys)
    den = draw(nonzero_polys)
    return Expr(VS, {k: v for k, v in num.items() if v}, {k: v for k, v in den.items() if v})


points = st.tuples(
    *(st.fractions(min_value=-4, max_value=4).filter(lambda q: q != 0) for _ in range(3))
)


def try_eval(expr, pt):
    try:
        return expr.eval({"x": pt[0], "y": pt[1], "z": pt[2]})
    except PoleError:
        return None


@given(expressions(), expressions(), points)
@settings(max_examples=120)
def test_ring_laws_at_rational_points(a, b, pt):
    va, vb = try_eval(a, pt), try_eval(b, pt)
    if va is None or vb is None:
        return
    assert try_eval(a + b, pt) == va + vb
    assert try_eval(a - b, pt) == va - vb
    assert try_eval(a * b, pt) == va * vb
    if not b.is_zero and vb != 0:
        q = a / b
        assert try_eval(q, pt) == va / vb


@given(expressions(), expressions())
@settings(max_examples=80)
def test_leibniz_rule(a, b):
    for v in VS:
        assert (a * b).diff(v) == a * b.diff(v) + b * a.diff(v)


@given(expressions())
@settings(max_examples=150)
def test_parse_print_roundtrip(a):
    assert parse(str(a), VS) == a


@given(expressions(), expressions(), expressions())
@settings(max_examples=60)
def test_field_laws_symbolically(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == Expr.zero(VS)


ops = st.sampled_from(["add", "sub", "mul", "truediv", "neg", "pow", "diff"])


@given(expressions(), expressions(), ops, st.integers(min_value=-3, max_value=3))
@settings(max_examples=150)
def test_operations_leave_operands_unchanged(a, b, op, k):
    # Exprs share their num/den dicts with each other, so no operation may mutate them
    before = [(dict(x.num), dict(x.den)) for x in (a, b)]
    try:
        if op == "pow":
            a**k
        elif op == "diff":
            a.diff(VS[k % 3])
        elif op == "neg":
            operator.neg(a)
        else:
            getattr(operator, op)(a, b)
    except ExprDivisionError:
        pass
    assert [(dict(x.num), dict(x.den)) for x in (a, b)] == before


def test_sympy_cross_check_random_sample():
    sympy = pytest.importorskip("sympy")
    sx, sy, sz = sympy.symbols("x y z")
    samples = [
        "(x + y)^2/(z^3 - z)",
        "x/(y + 1) - y/(x*z) + 3/2",
        "(z^2 - 1/z^2)*(x - y)",
        "1 - x*y*z + x^2*y^2/(2*z)",
    ]
    for text in samples:
        ours = e(text)
        theirs = sympy.cancel(sympy.sympify(text.replace("^", "**")))
        rebuilt = sympy.cancel(sympy.sympify(str(ours).replace("^", "**")))
        assert sympy.simplify(theirs - rebuilt) == 0

    for v, sv in ((X, sx), (Y, sy), (Z, sz)):
        ours = e("(x^2 + y)/(z - 2*y)").diff(v)
        theirs = sympy.cancel(sympy.diff(sympy.sympify("(x**2 + y)/(z - 2*y)"), sv))
        rebuilt = sympy.cancel(sympy.sympify(str(ours).replace("^", "**")))
        assert sympy.simplify(theirs - rebuilt) == 0


# -- the n-ary sum -------------------------------------------------------------

# Denominators are products of up to three of these factors, so a drawn sum
# mixes equal, coprime and shared-factor denominators, integer ones among them.
DEN_FACTORS = ("2", "3", "x", "y + 1", "x - z", "x*y + z^2")


@st.composite
def fraction_terms(draw):
    num = Expr(VS, draw(polys), {(0, 0, 0): 1})  # {} draws a zero term
    factors = draw(st.lists(st.sampled_from(DEN_FACTORS), max_size=3))
    return draw(st.sampled_from((1, -1))), num / e("*".join(factors) or "1")


def left_fold(terms) -> Expr:
    total = Expr.zero(VS)
    for s, t in terms:
        total = total + t if s > 0 else total - t
    return total


@st.composite
def signed_sums(draw):
    """Up to five signed terms, then one of: nothing; the same terms with the
    opposite signs, shuffled, so that the sum cancels to zero; or a term that
    makes the sum a drawn fraction, whose denominator is mostly a proper
    divisor of the terms' lcm, so that only the final normalisation finds it."""
    terms = draw(st.lists(fraction_terms(), max_size=5))
    tail = draw(st.sampled_from(("none", "cancel", "close")))
    if tail == "cancel":
        terms = draw(st.permutations(terms + [(-s, t) for s, t in terms]))
    elif tail == "close":
        s, target = draw(fraction_terms())
        terms.append((s, target - left_fold(terms) if s > 0 else left_fold(terms) - target))
    return terms


SUM_EXAMPLES = [
    [],
    [(1, e("0")), (-1, e("0"))],
    [(-1, e("x/(y + 1)"))],
    [(1, e("x/(y + 1)")), (-1, e("1/(y + 1)"))],
    [(1, e("x/2")), (1, e("y/3")), (-1, e("z/6"))],
    [(1, e("1/x")), (1, e("1/(x - z)")), (-1, e("y/(x*(x - z))"))],
    [(1, e("x/(y + 1)")), (-1, e("z")), (-1, e("x/(y + 1)")), (1, e("z"))],
    [(1, e("x/2")), (1, e("x/2")), (1, e("y"))],  # (2x + 2y)/2
    [(1, e("x/(x - z)")), (-1, e("z/(x - z)")), (1, e("y"))],  # (1 + y)(x - z)/(x - z)
]


def assert_sum_is_the_left_fold(terms):
    got, fold = Expr.sum(VS, terms), left_fold(terms)
    assert (got.num, got.den) == (fold.num, fold.den)
    assert str(got) == str(fold)


@given(signed_sums())
@settings(max_examples=150, deadline=None)
def test_sum_is_the_left_fold(terms):
    assert_sum_is_the_left_fold(terms)


@pytest.mark.parametrize("terms", SUM_EXAMPLES)
def test_sum_examples_are_the_left_fold(terms):
    assert_sum_is_the_left_fold(terms)


@given(signed_sums())
@settings(max_examples=25, deadline=None)
def test_sum_is_sympys_cancelled_sum(terms):
    sympy = pytest.importorskip("sympy")

    def sym(x):
        return sympy.sympify(str(x).replace("^", "**"))

    got = Expr.sum(VS, terms)
    expected = sympy.cancel(sum((sym(t) if s > 0 else -sym(t) for s, t in terms), sympy.Integer(0)))
    num, den = sym(Expr._raw(VS, got.num, {(0, 0, 0): 1})), sym(Expr._raw(VS, got.den, {(0, 0, 0): 1}))
    assert sympy.cancel(expected - num / den) == 0
    assert sympy.gcd(num, den) in (1, -1)  # lowest terms, integer content included
