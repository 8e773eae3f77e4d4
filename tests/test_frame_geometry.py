from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    decompose,
    lie_bracket,
    symmetric_inertia,
)
from lcslab.symexpr import Var

from test_symexpr import expressions

XYZ = (Var("x"), Var("y"), Var("z"))
CHART = Chart(XYZ)


def vf(*texts):
    return VectorField(CHART, tuple(CHART.parse(t) for t in texts))


E1 = vf("z*x", "z*y", "0")
E2 = vf("0", "z", "0")
E3 = vf("0", "0", "1")
FRAME = Frame((E1, E2, E3))


def lorentz_metric(frame=FRAME):
    rows = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1"))
    return FrameMetric.checked(frame, [[CHART.parse(t) for t in row] for row in rows])


METRIC = lorentz_metric()


class TestApply:
    def test_xi_direction(self):
        assert E3.apply(CHART.parse("-1/z")) == CHART.parse("1/z^2")

    def test_no_z_component(self):
        assert E1.apply(CHART.parse("-1/z")).is_zero

    def test_constant(self):
        assert E1.apply(CHART.parse("7/3")).is_zero


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
        assert FRAME.from_components(comps).coeffs == x.coeffs

    def test_singular_frame_rejected(self):
        with pytest.raises(SingularFrameError):
            Frame((vf("1", "0", "0"), vf("2", "0", "0"), vf("0", "0", "1")))

    def test_symbolically_singular_frame_rejected(self):
        # E2 = z E1 + x E3: dependent only with non-constant coefficients
        with pytest.raises(SingularFrameError, match="frame coefficient matrix is singular"):
            Frame((vf("x", "y", "0"), vf("x*z", "y*z", "x"), vf("0", "0", "1")))


class TestMetric:
    def test_xi_norm(self):
        assert METRIC.pair(FRAME.unit(2), FRAME.unit(2)) == CHART.const(-1)

    def test_orthogonality(self):
        assert METRIC.pair(FRAME.unit(0), FRAME.unit(1)).is_zero

    def test_symmetry_on_random_components(self):
        u = tuple(CHART.parse(t) for t in ("x", "1 - z", "y^2"))
        v = tuple(CHART.parse(t) for t in ("1/z", "x*y", "3"))
        assert METRIC.pair(u, v) == METRIC.pair(v, u)

    def test_bilinearity(self):
        u = tuple(CHART.parse(t) for t in ("x", "0", "1"))
        v = tuple(CHART.parse(t) for t in ("z", "y", "0"))
        w = tuple(CHART.parse(t) for t in ("1", "2", "x"))
        f = CHART.parse("x^2 - 1/z")
        left = METRIC.pair(tuple(f * a + b for a, b in zip(u, v)), w)
        assert left == f * METRIC.pair(u, w) + METRIC.pair(v, w)

    def test_asymmetric_matrix_rejected(self):
        rows = [["1", "x", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
        g = [[CHART.parse(t) for t in row] for row in rows]
        with pytest.raises(GeometryError):
            FrameMetric.checked(FRAME, g)


class TestInverseMetric:
    def test_orthonormal_lorentzian(self):
        inv = METRIC.inverse()
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
            "{Var(name='x'): Fraction(2, 1), Var(name='y'): Fraction(2, 1), Var(name='z'): Fraction(2, 1)}"
        )

    def test_inertia_handles_zero_diagonal(self):
        assert symmetric_inertia([[0, 1], [1, 0]]) == (1, 1, 0)
        assert symmetric_inertia([[0, 0, 2], [0, 0, 0], [2, 0, 0]]) == (1, 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(-3, 3), min_size=n * n))))
    def test_inertia_equals_rational_elimination(self, shape):
        # the fraction-free elimination against a rational congruence
        # diagonalization of the same symmetric matrix (reference model)
        n, cells = shape  # the upper triangle of the matrix from cells
        m = [[cells[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
        assert symmetric_inertia(m) == rational_inertia(m)


def rational_inertia(m):
    """(positive, negative, zero) of a symmetric matrix by congruence
    diagonalization over the rationals: pivot on a nonzero diagonal entry
    (after a symmetric swap, or adding a row and column with a nonzero
    off-diagonal entry), then eliminate its row and column."""
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
        assert not t.is_zero()

    def test_vector_valued(self):
        t = FrameTensor.build((1, 1), 2, lambda i: (CHART.one(), CHART.zero()))
        assert t.comp(1) == (CHART.one(), CHART.zero())

    def test_sub_and_zero(self):
        t = FrameTensor.build((0, 2), 2, lambda i, j: CHART.parse("x + y"))
        assert not t.is_zero()
        assert FrameTensor.build((0, 2), 2, lambda i, j: t.comp(i, j) - CHART.parse("y + x")).is_zero()

    def test_bad_valence(self):
        with pytest.raises(GeometryError):
            FrameTensor.build((2, 2), 3, lambda i, j: CHART.zero())

    def test_stores_only_nonzero_leaves_in_index_order(self):
        t = FrameTensor.build((0, 2), 3, lambda i, j: CHART.const(j - i) if i != 1 else CHART.zero())
        assert list(t.comps) == [(0, 1), (0, 2), (2, 0), (2, 1)]
        assert all(not leaf.is_zero for leaf in t.comps.values())
        v = FrameTensor.build((1, 2), 2, lambda i, j: (CHART.zero(), CHART.one() if i == j else CHART.zero()))
        assert list(v.comps) == [(0, 0), (1, 1)]

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
        assert t.is_zero() and t.zero == CHART.zero()
        v = FrameTensor.build((1, 3), 3, lambda i, j, k: (CHART.zero(),) * 3, set())
        assert v.is_zero() and v.zero == (CHART.zero(),) * 3 and v.comp(0, 1, 2) == v.zero

    def test_all_zero_build_is_zero(self):
        for valence, fn in (((0, 3), lambda *ix: CHART.zero()), ((1, 2), lambda *ix: (CHART.zero(),) * 3)):
            t = FrameTensor.build(valence, 3, fn)
            assert t.comps == {} and t.is_zero()


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
