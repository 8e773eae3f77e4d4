import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab.builtin_manifolds import MAX_N
from lcslab.frame_geometry import (
    Chart,
    DegenerateMetricError,
    Frame,
    FrameMetric,
    FrameTensor,
    GeometryError,
    SignatureError,
    SingularFrameError,
    VectorField,
    combo,
    decompose,
    dot,
    lie_bracket,
    symmetric_inertia,
)
from lcslab.symexpr import Var

from conftest import AD_HOC, ad_hoc, builtin, frame_field
from test_symexpr import expressions

XYZ = (Var("x"), Var("y"), Var("z"))
CHART = Chart(XYZ)


def vf(*texts):
    return VectorField(CHART, tuple(CHART.parse(t) for t in texts))


E1 = vf("z*x", "z*y", "0")
E2 = vf("0", "z", "0")
E3 = vf("0", "0", "1")
FRAME = Frame((E1, E2, E3))


@pytest.fixture
def metric():
    # built in each test that reads it, so that a fault in the signature
    # check fails those tests instead of the collection of this module
    rows = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1"))
    return FrameMetric.checked(FRAME, [[CHART.parse(t) for t in row] for row in rows])


class TestApply:
    def test_xi_direction(self):
        assert E3.apply(CHART.parse("-1/z")) == CHART.parse("1/z^2")

    def test_no_z_component(self):
        assert E1.apply(CHART.parse("-1/z")).is_zero

    def test_constant(self):
        assert E1.apply(CHART.parse("7/3")).is_zero

    def test_coefficients_over_different_denominators(self):
        # over their lcm 6, the coefficients 1/2 and 1/3 weigh 3 and 2; over
        # x y, 1/x and 1/y weigh y and x
        assert vf("1/2", "1/3", "0").apply(CHART.parse("x + y")) == CHART.parse("5/6")
        assert vf("1/x", "1/y", "0").apply(CHART.parse("x*y")) == CHART.parse("(x^2 + y^2)/(x*y)")


class TestLieBracket:
    def test_e1_e2(self):
        # -z E2 in coordinates; note -(z^2), since "-z^2" parses as (-z)^2
        assert lie_bracket(E1, E2).coeffs == vf("0", "-(z^2)", "0").coeffs

    def test_e1_e3(self):
        got = lie_bracket(E1, E3)
        expected = vf("-x", "-y", "0")  # -(1/z) E1 in coordinates
        assert got.coeffs == expected.coeffs

    def test_coordinate_fields_commute(self):
        dx, dy = vf("1", "0", "0"), vf("0", "1", "0")
        assert all(c.is_zero for c in lie_bracket(dx, dy).coeffs)


class TestDecompose:
    def test_bracket_in_frame(self):
        comps = decompose(lie_bracket(E1, E2), FRAME)
        assert comps == (CHART.zero(), CHART.parse("-z"), CHART.zero())

    def test_frame_field_is_unit(self):
        assert decompose(E1, FRAME) == (CHART.one(), CHART.zero(), CHART.zero())

    def test_mixed_field(self):
        comps = decompose(vf("0", "z", "1"), FRAME)
        assert comps == (CHART.zero(), CHART.one(), CHART.one())

    def test_recompose_roundtrip(self):
        x = vf("x + z^2", "1 - y", "x*y*z")
        comps = decompose(x, FRAME)
        assert frame_field(FRAME, comps).coeffs == x.coeffs

    def test_singular_frame_rejected(self):
        with pytest.raises(SingularFrameError):
            Frame((vf("1", "0", "0"), vf("2", "0", "0"), vf("0", "0", "1")))

    def test_symbolically_singular_frame_rejected(self):
        # E2 = z E1 + x E3: dependent only with non-constant coefficients
        with pytest.raises(SingularFrameError, match="frame coefficient matrix is singular"):
            Frame((vf("x", "y", "0"), vf("x*z", "y*z", "x"), vf("0", "0", "1")))


class TestMetric:
    def test_xi_norm(self, metric):
        assert metric.pair(FRAME.unit(2), FRAME.unit(2)) == CHART.const(-1)

    def test_orthogonality(self, metric):
        assert metric.pair(FRAME.unit(0), FRAME.unit(1)).is_zero

    def test_symmetry_on_random_components(self, metric):
        u = tuple(CHART.parse(t) for t in ("x", "1 - z", "y^2"))
        v = tuple(CHART.parse(t) for t in ("1/z", "x*y", "3"))
        assert metric.pair(u, v) == metric.pair(v, u)

    def test_bilinearity(self, metric):
        u = tuple(CHART.parse(t) for t in ("x", "0", "1"))
        v = tuple(CHART.parse(t) for t in ("z", "y", "0"))
        w = tuple(CHART.parse(t) for t in ("1", "2", "x"))
        f = CHART.parse("x^2 - 1/z")
        left = metric.pair(tuple(f * a + b for a, b in zip(u, v)), w)
        assert left == f * metric.pair(u, w) + metric.pair(v, w)

    @pytest.mark.parametrize("name", ["lcs3", "off-diagonal", "dense-style"])
    def test_metric_tensor_holds_the_nonzero_entries(self, name):
        # g as a (0,2) frame tensor, built once: its leaves are exactly the
        # nonzero entries of g, off the diagonal too ("off-diagonal" has
        # g(E_1, E_2) = 1)
        data = ad_hoc(name) if name in AD_HOC else builtin(name)
        g, tensor = data.metric.g, data.metric.tensor
        nonzero = {(i, j): e for i, row in enumerate(g) for j, e in enumerate(row) if not e.is_zero}
        assert tensor.valence == (0, 2) and tensor.comps == nonzero
        assert list(tensor.comps) == sorted(nonzero) and data.metric.tensor is tensor
        assert (name == "off-diagonal") == any(i != j for i, j in nonzero)

    def test_asymmetric_matrix_rejected(self):
        rows = [["1", "x", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
        g = [[CHART.parse(t) for t in row] for row in rows]
        with pytest.raises(GeometryError):
            FrameMetric.checked(FRAME, g)


class TestInverseMetric:
    def test_orthonormal_lorentzian(self, metric):
        inv = metric.inverse()
        assert inv[2][2] == CHART.const(-1)
        assert inv[0][0] == CHART.one() and inv[0][1].is_zero

    def test_scaled_diagonal(self):
        rows = (("z^2", "0", "0"), ("0", "1", "0"), ("0", "0", "-1"))
        m = FrameMetric.checked(FRAME, [[CHART.parse(t) for t in row] for row in rows])
        inv = m.inverse()
        assert inv[0][0] == CHART.parse("1/z^2")
        assert inv[1][1] == CHART.one()
        assert inv[2][2] == CHART.const(-1)

    def test_inverse_times_metric_is_identity(self):
        rows = (("2", "1", "0"), ("1", "z^2 + 2", "0"), ("0", "0", "-1/z^2"))
        m = FrameMetric.checked(FRAME, [[CHART.parse(t) for t in row] for row in rows])
        inv = m.inverse()
        n = 3
        for i in range(n):
            for j in range(n):
                entry = sum((m.g[i][a] * inv[a][j] for a in range(n)), CHART.zero())
                assert entry == (CHART.one() if i == j else CHART.zero())


class TestSignature:
    def test_riemannian_rejected(self):
        rows = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
        with pytest.raises(SignatureError):
            FrameMetric.checked(FRAME, [[CHART.parse(t) for t in row] for row in rows])

    def test_identically_degenerate_rejected(self):
        rows = (("1", "0", "0"), ("0", "0", "0"), ("0", "0", "-1"))
        with pytest.raises(DegenerateMetricError):
            FrameMetric.checked(FRAME, [[CHART.parse(t) for t in row] for row in rows])

    def test_dependent_rows_rejected_as_degenerate(self):
        # row 2 is x times row 1; no entry of the matrix is zero
        rows = (("1", "x", "z"), ("x", "x^2", "x*z"), ("z", "x*z", "y"))
        with pytest.raises(DegenerateMetricError, match="metric determinant is identically zero"):
            FrameMetric.checked(FRAME, [[CHART.parse(t) for t in row] for row in rows])

    def test_degenerate_at_sample_point_rejected(self):
        rows = (("1", "0", "0"), ("0", "z - 2", "0"), ("0", "0", "-1"))
        g = [[CHART.parse(t) for t in row] for row in rows]
        with pytest.raises(DegenerateMetricError):
            FrameMetric.checked(FRAME, g)  # default sample has z = 2
        FrameMetric.checked(FRAME, g, {Var("x"): (1, 1), Var("y"): (1, 1), Var("z"): (3, 1)})
        FrameMetric.checked(FRAME, g, {Var("x"): (1, 1), Var("y"): (1, 1), Var("z"): (5, 2)})

    def test_signature_at_a_rational_point(self):
        # g22 = 4z - 9 is negative at z = 2 and positive at z = 9/4 + 1/2
        rows = (("1", "0", "0"), ("0", "4*z - 9", "0"), ("0", "0", "-1/z"))
        g = [[CHART.parse(t) for t in row] for row in rows]
        with pytest.raises(SignatureError, match=r"\(1,2\)"):
            FrameMetric.checked(FRAME, g)
        FrameMetric.checked(FRAME, g, {Var("x"): (1, 1), Var("y"): (1, 1), Var("z"): (11, 4)})

    def test_pole_at_the_sample_point_names_it(self):
        rows = (("1", "0", "0"), ("0", "1/(z - 2)", "0"), ("0", "0", "-1"))
        g = [[CHART.parse(t) for t in row] for row in rows]
        with pytest.raises(SignatureError) as info:
            FrameMetric.checked(FRAME, g)
        assert str(info.value) == (
            "cannot evaluate metric at the sample point: denominator of 1/(z - 2) vanishes at "
            "x=2, y=2, z=2"
        )
        # a rational coordinate prints as p/q, in lowest terms
        point = {Var("x"): (-6, 4), Var("y"): (1, 1), Var("z"): (4, 2)}
        with pytest.raises(SignatureError) as info:
            FrameMetric.checked(FRAME, g, point)
        assert str(info.value).endswith("vanishes at x=-3/2, y=1, z=2")

    def test_inertia_handles_zero_diagonal(self):
        assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
        assert symmetric_inertia([[0, 0, 2], [0, 0, 0], [2, 0, 0]]) == (1, 1, 1)
        # det(tI - m) = t^3 - 2t^2 + t: the trailing zero coefficient is a
        # zero eigenvalue, not a sign change
        assert symmetric_inertia([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) == (2, 0, 1)
        assert symmetric_inertia([[0] * 3 for _ in range(3)]) == (0, 0, 3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, MAX_N).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(-1000, 1000), min_size=n * n), st.integers(0, n - 1)
            )
        )
    )
    def test_inertia_equals_rational_elimination(self, shape):
        # Descartes' rule on the characteristic polynomial against a rational
        # congruence diagonalization of the same symmetric matrix (reference
        # model), at every dimension a definition can have
        n, cells, copies = shape  # the upper triangle of the matrix from cells
        # rows and columns 1..copies repeat row and column 0: rank <= n - copies
        r = [0 if i <= copies else i for i in range(n)]
        m = [[cells[min(r[i], r[j]) * n + max(r[i], r[j])] for j in range(n)] for i in range(n)]
        assert symmetric_inertia(m) == rational_inertia(m)


def rational_inertia(m):
    """(positive, negative, zero) of a symmetric matrix by Sylvester's law of
    inertia, independently of the characteristic polynomial that
    ``symmetric_inertia`` reads: congruence diagonalization over the
    rationals, pivoting on a nonzero diagonal entry (after a symmetric swap,
    or adding a row and column with a nonzero off-diagonal entry), then
    eliminating its row and column."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                for j in range(n):
                    a[k][j], a[swap][j] = a[swap][j], a[k][j]
                for i in range(n):
                    a[i][k], a[i][swap] = a[i][swap], a[i][k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for j in range(n):
                    a[k][j] += a[off][j]
                for i in range(n):
                    a[i][k] += a[i][off]
        d = a[k][k]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        for i in range(k + 1, n):
            f = a[i][k] / d
            for j in range(n):
                a[i][j] -= f * a[k][j]
            for j in range(n):
                a[j][i] -= f * a[j][k]
    return pos, neg, zero


class TestFrameTensor:
    def test_build_and_index(self):
        t = FrameTensor.build((0, 2), 3, lambda i, j: CHART.const(i * 3 + j))
        assert t.comp(1, 2) == CHART.const(5)
        assert not t.is_zero

    def test_vector_valued(self):
        t = FrameTensor.build((1, 1), 2, lambda i: (CHART.one(), CHART.zero()))
        assert t.comp(1) == (CHART.one(), CHART.zero())

    def test_sub_and_zero(self):
        t = FrameTensor.build((0, 2), 2, lambda i, j: CHART.parse("x + y"))
        assert not t.is_zero
        assert FrameTensor.build((0, 2), 2, lambda i, j: t.comp(i, j) - CHART.parse("y + x")).is_zero

    def test_bad_valence(self):
        with pytest.raises(GeometryError):
            FrameTensor.build((2, 2), 3, lambda i, j: CHART.zero())

    def test_stores_only_nonzero_leaves_in_index_order(self):
        t = FrameTensor.build((0, 2), 3, lambda i, j: CHART.const(j - i) if i != 1 else CHART.zero())
        assert list(t.comps) == [(0, 1), (0, 2), (2, 0), (2, 1)]
        assert all(not leaf.is_zero for leaf in t.comps.values())
        v = FrameTensor.build((1, 2), 2, lambda i, j: (CHART.zero(), CHART.one() if i == j else CHART.zero()))
        assert list(v.comps) == [(0, 0), (1, 1)]

    def test_at_reads_the_scalar_at_a_full_index(self):
        # a vector leaf's component index comes last; an absent index reads 0
        t = FrameTensor.build((0, 2), 3, lambda i, j: CHART.const(i * 3 + j))
        assert t.at((1, 2)) == t.comp(1, 2) == CHART.const(5)
        v = FrameTensor.build((1, 1), 2, lambda i: (CHART.zero(), CHART.parse("x")) if i else (CHART.zero(),) * 2)
        assert v.at((1, 1)) == CHART.parse("x") and v.at((1, 0)).is_zero and v.at((0, 1)).is_zero

    def test_missing_index_reads_the_zero_leaf(self):
        t = FrameTensor.build((0, 2), 3, lambda i, j: CHART.one() if i == j else CHART.zero())
        assert t.comp(0, 1) == CHART.zero() and t.comp(0, 1).is_zero
        v = FrameTensor.build((1, 1), 3, lambda i: (CHART.one() if i == 0 else CHART.zero(), CHART.zero(), CHART.zero()))
        assert list(v.comps) == [(0,)]
        assert v.comp(1) == (CHART.zero(),) * 3

    def test_support_limits_evaluation_to_its_indices_in_index_order(self):
        seen = []

        def fn(i, j):
            seen.append((i, j))
            return CHART.const(i + j + 1)

        t = FrameTensor.build((0, 2), 3, fn, {(2, 0), (0, 2), (1, 1)})
        assert seen == [(0, 2), (1, 1), (2, 0)]
        assert list(t.comps) == seen and t.comp(0, 0).is_zero

    def test_empty_support_gives_zero_tensor_with_its_zero_leaf(self):
        t = FrameTensor.build((0, 2), 3, lambda i, j: CHART.zero(), ())
        assert t.is_zero and t.zero == CHART.zero()
        v = FrameTensor.build((1, 3), 3, lambda i, j, k: (CHART.zero(),) * 3, set())
        assert v.is_zero and v.zero == (CHART.zero(),) * 3 and v.comp(0, 1, 2) == v.zero

    def test_all_zero_build_is_zero(self):
        for valence, fn in (((0, 3), lambda *ix: CHART.zero()), ((1, 2), lambda *ix: (CHART.zero(),) * 3)):
            t = FrameTensor.build(valence, 3, fn)
            assert t.comps == {} and t.is_zero


# -- bracket properties on random polynomial vector fields --------------------

small_polys = st.sampled_from(
    ["0", "1", "x", "y", "z", "x*y", "z^2", "x + z", "y - 1", "x*z - y", "2*y*z"]
)
vfields = st.tuples(small_polys, small_polys, small_polys).map(lambda t: vf(*t))


@given(vfields, vfields)
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry(a, b):
    ab = lie_bracket(a, b)
    ba = lie_bracket(b, a)
    assert all((p + q).is_zero for p, q in zip(ab.coeffs, ba.coeffs))


@given(vfields, vfields, vfields)
@settings(max_examples=25, deadline=None)
def test_jacobi_identity(a, b, c):
    total = [
        lie_bracket(a, lie_bracket(b, c)),
        lie_bracket(b, lie_bracket(c, a)),
        lie_bracket(c, lie_bracket(a, b)),
    ]
    for i in range(3):
        assert sum((t.coeffs[i] for t in total), CHART.zero()).is_zero


# nonzero terms over shared and different denominators
nonzero = st.sampled_from(["x", "-3", "2*z - x", "y + 1", "1/z", "x/(y + 1)", "x*y/(z + 1)", "1/(x - y)", "-z/(y + 1)"]).map(
    CHART.parse
)


@given(st.lists(st.tuples(nonzero, st.tuples(nonzero, nonzero, nonzero, nonzero)), min_size=3, max_size=4))
@settings(max_examples=60, deadline=None)
def test_dot_and_combo_are_the_left_fold(terms):
    # each is one sum of its three or more nonzero terms, which is the Expr
    # the left fold of + gives; a zero factor adds no term, and combo never
    # asks for the vector of a zero coefficient
    coeffs, vectors = [c for c, _ in terms], [w for _, w in terms]
    zero = CHART.zero()
    factors = [w[0] for w in vectors]
    assert dot([zero, *coeffs], [factors[0], *factors]) == reduce(operator.add, map(operator.mul, coeffs, factors))

    def vector_of(a):
        assert a < len(vectors), "the vector of a zero coefficient was asked for"
        return vectors[a]

    expected = tuple(reduce(operator.add, (c * w[j] for c, w in zip(coeffs, vectors))) for j in range(4))
    assert combo([*coeffs, zero], vector_of) == expected


@given(expressions(), st.lists(expressions(), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_frame_derivative_equals_the_sum_of_partials(f, coeffs):
    # X(f) is normalised once over the lcm of the coefficients' denominators;
    # rational coefficients included (the strategy's denominators have content)
    field = VectorField(CHART, tuple(coeffs))
    expected = CHART.zero()
    for c, v in zip(coeffs, XYZ):
        expected = expected + c * f.diff(v)
    got = field.apply(f)
    assert (got.vars, got.num, got.den) == (expected.vars, expected.num, expected.den)
