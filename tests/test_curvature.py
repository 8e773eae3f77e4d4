from fractions import Fraction

import pytest

from lcslab.frame_geometry import FrameTensor
from lcslab.levi_civita import cov_deriv_tensor
from lcslab.self_checks import PERMUTATION_IDENTITIES, orbit_vanishes, riemann_lowered

from conftest import ad_hoc, builtin, make_manifold


PUBLISHED_CURVATURE = {
    (1, 2, 2): ("0", "-2/z^2", "0"),
    (0, 2, 2): ("-2/z^2", "0", "0"),
    (0, 1, 1): ("1/z^2 - z^2", "0", "0"),
    (1, 2, 1): ("0", "0", "-2/z^2"),
    (0, 1, 0): ("0", "z^2 - 1/z^2", "0"),
    (0, 2, 0): ("0", "0", "-2/z^2"),
}


class TestRiemann:
    def test_published_components(self, example51):
        riem = example51.stack.riemann13
        for (i, j, k), texts in PUBLISHED_CURVATURE.items():
            expected = tuple(example51.chart.parse(t) for t in texts)
            assert riem.comp(i, j, k) == expected, (i, j, k)

    def test_flat_space_is_flat(self, flat3):
        assert flat3.stack.riemann13.is_zero()
        assert flat3.stack.ricci.is_zero()
        assert flat3.stack.scalar.is_zero

    def test_structural_identities(self, example51, desitter3, flat3):
        for data in (example51, desitter3, flat3):
            checks = data.stack.self_check(data.metric, data.connection)
            assert all(ok for _, ok in checks), checks
            names = [name for name, _ in checks]
            assert "first-bianchi" in names and "second-bianchi" in names

    def test_self_check_catches_corrupted_riemann(self, example51):
        data = example51
        riem = bump_leaf(data.stack.riemann13, (0, 1, 1), data.chart.one())  # R(E1,E2)E2 gains E1
        checks = dict(data.stack._replace(riemann13=riem).self_check(data.metric, data.connection))
        assert not checks["antisymmetry-first-pair"]
        assert not checks["pair-symmetry"]

    def test_self_check_catches_corrupted_nabla_riemann(self, example51):
        data = example51
        nabla_r = bump_leaf(data.nabla_riemann, (0, 1, 2, 2), data.chart.one())
        checks = dict(data.stack.self_check(data.metric, data.connection, nabla_r))
        assert not checks["second-bianchi"]
        assert all(ok for name, ok in checks.items() if name != "second-bianchi")

    def test_second_bianchi_reads_the_derivative_of_the_stack_riemann(self, example51):
        # with no nabla R given, self_check derives it from the connection:
        # an R kept antisymmetric in its first pair, so that the half rule
        # holds, yet not a curvature tensor, has a derivative that breaks
        # the identity on the Bianchi support
        data = example51
        one = data.chart.one()
        riem = bump_leaf(bump_leaf(data.stack.riemann13, (0, 1, 2), one), (1, 0, 2), -one)
        checks = dict(data.stack._replace(riemann13=riem).self_check(data.metric, data.connection))
        assert checks["antisymmetry-first-pair"] and not checks["second-bianchi"]

    @pytest.mark.parametrize("name", ["example51", "lcs4", "dense-style"])
    def test_every_bianchi_support_leaf_is_read(self, name):
        # one sum per orbit still reads every stored leaf: a bump to any
        # single one, its mirror left as it was, fails the identity
        data = ad_hoc(name) if name == "dense-style" else builtin(name)
        leaves = cov_deriv_tensor(data.connection, data.stack.riemann13, bianchi=True)
        identity = PERMUTATION_IDENTITIES["second-bianchi"]
        assert leaves.comps and orbit_vanishes(leaves, identity)
        for idx in leaves.comps:
            assert not orbit_vanishes(bump_leaf(leaves, idx, data.chart.one()), identity), idx


def bump_leaf(tensor, idx, amount):
    """A copy of a tensor with amount added to the leaf at idx (to the first
    component of a vector leaf)."""

    def leaf(*ix):
        value = tensor.comp(*ix)
        if ix != idx:
            return value
        return (value[0] + amount,) + value[1:] if tensor.valence[0] else value + amount

    return FrameTensor.build(tensor.valence, tensor.dim, leaf)


class TestSelfCheckOnFlatSpace:
    """Every leaf of flat space is zero, so only the bumped leaf is stored:
    each identity must still reach the missing partners of that leaf."""

    def failed(self, stack, data, nabla_r):
        return [name for name, ok in stack.self_check(data.metric, data.connection, nabla_r) if not ok]

    def test_bumped_riemann_leaf(self, flat3):
        riem = bump_leaf(flat3.stack.riemann13, (0, 1, 2), flat3.chart.one())  # R(E1,E2)E3 gains E1
        assert list(riem.comps) == [(0, 1, 2)]
        failed = self.failed(flat3.stack._replace(riemann13=riem), flat3, flat3.nabla_riemann)
        assert failed == ["antisymmetry-first-pair", "antisymmetry-second-pair", "pair-symmetry", "first-bianchi"]

    def test_bumped_nabla_riemann_leaf(self, flat3):
        nabla_r = bump_leaf(flat3.nabla_riemann, (2, 0, 1, 1), flat3.chart.one())
        assert self.failed(flat3.stack, flat3, nabla_r) == ["second-bianchi"]

    def test_asymmetric_ricci_leaf(self, flat3):
        ric = bump_leaf(flat3.stack.ricci, (0, 2), flat3.chart.one())
        failed = self.failed(flat3.stack._replace(ricci=ric), flat3, flat3.nabla_riemann)
        assert failed == ["ricci-symmetry", "ricci-operator-defining"]  # Q is still the flat one

    def test_bumped_ricci_operator_leaf(self, flat3):
        q_op = bump_leaf(flat3.stack.q_operator, (1,), flat3.chart.one())  # Q E2 gains E1
        assert self.failed(flat3.stack._replace(q_operator=q_op), flat3, flat3.nabla_riemann) == [
            "ricci-operator-defining"
        ]


@pytest.mark.parametrize("name", sorted(PERMUTATION_IDENTITIES))
def test_identity_permutations_form_a_group(name):
    # the orbit argument of orbit_vanishes: the permutations with the
    # identity are closed under composition and the signs multiply along,
    # a character of the group, so one sum per orbit decides the orbit
    terms = PERMUTATION_IDENTITIES[name]
    sign = {perm: s for s, perm in terms}
    identity = tuple(range(len(terms[0][1])))
    assert sign.get(identity) == 1
    for p, sp in sign.items():
        for q, sq in sign.items():
            composed = tuple(p[m] for m in q)
            assert composed in sign, (p, q)
            assert sign[composed] == sp * sq, (p, q)


class TestRicci:
    def test_anchor_value(self, example51):
        assert example51.stack.ricci.comp(2, 2) == example51.chart.parse("-4/z^2")

    def test_diagonal_engine_values(self, example51):
        expected = example51.chart.parse("3/z^2 - z^2")
        assert example51.stack.ricci.comp(0, 0) == expected
        assert example51.stack.ricci.comp(1, 1) == expected
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert example51.stack.ricci.comp(i, j).is_zero

    def test_value_against_independent_contraction(self, example51):
        # oracle: rebuild S(E1,E1) by contracting the engine's own lowered
        # curvature with the inverse metric, written out independently here
        data = example51
        low = riemann_lowered(data.stack.riemann13, data.metric)
        ginv = data.metric.inverse()
        n = data.dim
        total = data.chart.zero()
        for a in range(n):
            for b in range(n):
                total = total + ginv[a][b] * low.comp(a, 0, 0, b)
        assert total == data.stack.ricci.comp(0, 0)

    def test_value_against_numeric_recomputation(self, example51):
        # exact rational check at x=1, y=1, z=2: 3/z^2 - z^2 = -13/4
        pt = {"x": 1, "y": 1, "z": 2}
        assert example51.stack.ricci.comp(0, 0).eval(pt) == Fraction(-13, 4)
        assert example51.stack.ricci.comp(2, 2).eval(pt) == Fraction(-1, 1)

    def test_ricci_xi_relation(self, example51):
        # S(X, xi) = (n-1)(alpha^2 - rho) eta(X) with the factor 4/z^2
        st = example51.structure
        factor = example51.chart.const(2) * (st.alpha * st.alpha - st.rho)
        assert factor == example51.chart.parse("4/z^2")
        n = example51.dim
        for i in range(n):
            lhs = sum(
                (st.xi[a] * example51.stack.ricci.comp(i, a) for a in range(n)),
                example51.chart.zero(),
            )
            assert lhs == factor * st.eta[i]


class TestScalarAndOperator:
    def test_scalar_is_trace(self, example51):
        s = example51.stack.ricci
        expected = s.comp(0, 0) + s.comp(1, 1) - s.comp(2, 2)
        assert example51.stack.scalar == expected
        assert example51.stack.scalar == example51.chart.parse("10/z^2 - 2*z^2")

    def test_scalar_numeric_cross_check(self, example51):
        assert example51.stack.scalar.eval({"x": 1, "y": 1, "z": 2}) == Fraction(-11, 2)

    def test_operator_defining_property(self, example51):
        data = example51
        n = data.dim
        for i in range(n):
            for j in range(n):
                paired = data.metric.pair(data.stack.q_operator.comp(i), data.frame.unit(j))
                assert paired == data.stack.ricci.comp(i, j)

    def test_desitter_einstein_values(self, desitter3):
        # constant curvature +1: S = 2g, r = 6
        for i in range(3):
            for j in range(3):
                assert desitter3.stack.ricci.comp(i, j) == 2 * desitter3.metric.g[i][j]
        assert desitter3.stack.scalar == desitter3.chart.const(6)


class TestMProjective:
    def test_xi_insertion_vanishes(self, example51):
        st = example51.structure
        mproj = example51.m_projective
        n = example51.dim
        for i in range(n):
            for j in range(n):
                vec = None
                for a in range(n):
                    term = tuple(st.xi[a] * c for c in mproj.comp(i, j, a))
                    vec = term if vec is None else tuple(p + q for p, q in zip(vec, term))
                assert st.eta_of(vec).is_zero, (i, j)

    def test_constant_curvature_annihilates(self, desitter3):
        assert desitter3.m_projective.is_zero()

    def test_antisymmetry(self, example51):
        mproj = example51.m_projective
        n = example51.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = mproj.comp(i, j, k)
                    right = mproj.comp(j, i, k)
                    assert all((a + b).is_zero for a, b in zip(left, right))


class TestConcircular:
    def test_constant_curvature_annihilates(self, desitter3):
        assert desitter3.concircular.is_zero()

    def test_reference_manifold_is_not_constant_curvature(self, example51):
        assert not example51.concircular.is_zero()
        # frozen spot value: C(E1,E3)E3 = (-1/(3 z^2) - z^2/3) E1
        expected = example51.chart.parse("-1/(3*z^2) - z^2/3")
        assert example51.concircular.comp(0, 2, 2)[0] == expected

    def test_antisymmetry(self, example51):
        conc = example51.concircular
        n = example51.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = conc.comp(i, j, k)
                    right = conc.comp(j, i, k)
                    assert all((a + b).is_zero for a, b in zip(left, right))


def m_formula(data, x, y, z):
    """M(E_x,E_y)E_z from its definition, at any index:
    R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY] / (2(n-1))."""
    n, stack, g = data.dim, data.stack, data.metric.g
    two_n1 = data.chart.const(2 * (n - 1))
    ex, ey = data.frame.unit(x), data.frame.unit(y)
    qx, qy = stack.q_operator.comp(x), stack.q_operator.comp(y)
    return tuple(
        r - (stack.ricci.comp(y, z) * a - stack.ricci.comp(x, z) * b + g[y][z] * c - g[x][z] * d) / two_n1
        for r, a, b, c, d in zip(stack.riemann13.comp(x, y, z), ex, ey, qx, qy)
    )


def c_formula(data, x, y, w):
    """C(E_x,E_y)E_w from its definition, at any index:
    R(X,Y)W - r/(n(n-1)) [g(Y,W)X - g(X,W)Y]."""
    n, stack, g = data.dim, data.stack, data.metric.g
    factor = stack.scalar / data.chart.const(n * (n - 1))
    ex, ey = data.frame.unit(x), data.frame.unit(y)
    return tuple(r - factor * (g[y][w] * a - g[x][w] * b) for r, a, b in zip(stack.riemann13.comp(x, y, w), ex, ey))


@pytest.mark.parametrize("name", ["example51", "lcs4", "dense-style", "bracket-only"])
def test_m_projective_and_concircular_half_rule_equals_the_formula(name):
    # M and C are evaluated at x < y only: every mirrored (x > y) leaf and
    # every empty x = y leaf must be what the formula gives there
    data = ad_hoc(name) if name in ("dense-style", "bracket-only") else builtin(name)
    n = data.dim
    for tensor, formula in ((data.m_projective, m_formula), (data.concircular, c_formula)):
        assert not any(x == y for x, y, _ in tensor.comps)
        assert any(x > y for x, y, _ in tensor.comps)
        for x in range(n):
            for y in range(x + 1):
                for z in range(n):
                    assert tensor.comp(x, y, z) == formula(data, x, y, z), (x, y, z)


class TestNablaRiemann:
    def test_flat_space_vanishes(self, flat3):
        assert flat3.nabla_riemann.is_zero()

    def test_desitter_parallel_curvature(self, desitter3):
        assert desitter3.nabla_riemann.is_zero()

    def test_xi_insertion_formula(self, example51):
        # g((nabla_W R)(xi,Y)Z, xi) against -(2 alpha rho - beta){...} eta(W)
        data = example51
        st = data.structure
        coeff = 2 * st.alpha * st.rho - st.beta
        assert coeff == data.chart.parse("4/z^3")
        n = data.dim
        for w in range(n):
            for y in range(n):
                for z in range(n):
                    vec = None
                    for a in range(n):
                        term = tuple(st.xi[a] * c for c in data.nabla_riemann.comp(w, a, y, z))
                        vec = term if vec is None else tuple(p + q for p, q in zip(vec, term))
                    lhs = data.metric.pair(vec, st.xi)
                    rhs = -coeff * (data.metric.g[y][z] + st.eta[y] * st.eta[z]) * st.eta[w]
                    assert (lhs - rhs).is_zero, (w, y, z)


def test_constant_curvature_oracle_construction():
    # an independently scaled variant: E_i = (z/2) d/dx_i still has constant
    # curvature, now c = 1/4, so S = (n-1) c g and both derived tensors vanish
    data = make_manifold("halfscale", (("z/2", "0", "0"), ("0", "z/2", "0"), ("0", "0", "z/2")))
    half_g = FrameTensor.build((0, 2), 3, lambda i, j: data.metric.g[i][j] / 2)
    for i in range(3):
        for j in range(3):
            assert data.stack.ricci.comp(i, j) == half_g.comp(i, j)
    assert data.m_projective.is_zero()
    assert data.concircular.is_zero()
