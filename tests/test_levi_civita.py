import random

import pytest

from lcslab import polyops
from lcslab.derived_conditions import xi_action
from lcslab.curvature import riemann
from lcslab.frame_geometry import FrameTensor, GeometryError, decompose, lie_bracket, vec_add, vec_scale
from lcslab.levi_civita import cov_deriv_tensor, derivation
from lcslab.symexpr import Expr

from conftest import (
    AD_HOC,
    ad_hoc,
    builtin,
    cov_deriv_vector,
    gather_cov_deriv_tensor,
    make_manifold,
    pairwise_riemann,
)


def gcd_calls(monkeypatch, compute) -> int:
    """The poly_gcd calls of compute(), starting from empty memos (else a
    second run would count the first one's memo hits)."""
    gcd = polyops.poly_gcd
    calls = []

    def counted(a, b):
        calls.append(None)
        return gcd(a, b)

    polyops.reset_memos()
    with monkeypatch.context() as m:
        m.setattr(polyops, "poly_gcd", counted)
        compute()
    return len(calls)


def txt_vec(data, comps):
    return tuple(data.chart.parse(t) for t in comps)


PUBLISHED_CONNECTION = {
    (0, 0): ("0", "0", "-1/z"),
    (0, 1): ("0", "0", "0"),
    (0, 2): ("-1/z", "0", "0"),
    (1, 0): ("0", "z", "0"),
    (1, 1): ("-z", "0", "-1/z"),
    (1, 2): ("0", "-1/z", "0"),
    (2, 0): ("0", "0", "0"),
    (2, 1): ("0", "0", "0"),
    (2, 2): ("0", "0", "0"),
}


class TestKoszul:
    def test_all_nine_entries(self, example51):
        for (i, j), expected in PUBLISHED_CONNECTION.items():
            assert example51.connection.gamma[i][j] == txt_vec(example51, expected), (i, j)

    def test_flat_space_has_zero_connection(self, flat3):
        assert all(e.is_zero for row in flat3.connection.gamma for vec in row for e in vec)

    def test_torsion_free(self, example51, desitter3):
        for data in (example51, desitter3):
            n = data.dim
            for i in range(n):
                for j in range(n):
                    diff = tuple(
                        a - b - c
                        for a, b, c in zip(
                            data.connection.gamma[i][j], data.connection.gamma[j][i], data.brackets[i][j]
                        )
                    )
                    assert all(e.is_zero for e in diff)

    def test_metric_compatibility(self, example51, desitter3):
        for data in (example51, desitter3):
            n = data.dim
            g = data.metric.g
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        lhs = data.frame.fields[k].apply(g[i][j])
                        rhs = data.metric.pair(data.connection.gamma[k][i], data.frame.unit(j))
                        rhs = rhs + data.metric.pair(data.frame.unit(i), data.connection.gamma[k][j])
                        assert (lhs - rhs).is_zero


class TestCovDerivVector:
    def test_published_entries(self, example51):
        conn = example51.connection
        got = cov_deriv_vector(conn, example51.frame.unit(0), example51.frame.unit(2))
        assert got == txt_vec(example51, ("-1/z", "0", "0"))
        got = cov_deriv_vector(conn, example51.frame.unit(2), example51.frame.unit(2))
        assert all(e.is_zero for e in got)

    def test_flat_constant_field(self, flat3):
        y = txt_vec(flat3, ("2", "-3", "5"))
        out = cov_deriv_vector(flat3.connection, flat3.frame.unit(0), y)
        assert all(e.is_zero for e in out)

    def test_leibniz_rule(self, example51):
        conn = example51.connection
        chart = example51.chart
        rng = random.Random(5)
        pool = ["x", "z", "1/z", "x*y", "y + z", "2"]
        for _ in range(5):
            f = chart.parse(rng.choice(pool))
            x = txt_vec(example51, tuple(rng.choice(pool) for _ in range(3)))
            y = txt_vec(example51, tuple(rng.choice(pool) for _ in range(3)))
            fy = tuple(f * c for c in y)
            lhs = cov_deriv_vector(conn, x, fy)
            xf = example51.frame.from_components(x).apply(f)
            base = cov_deriv_vector(conn, x, y)
            rhs = tuple(xf * yc + f * bc for yc, bc in zip(y, base))
            assert all((a - b).is_zero for a, b in zip(lhs, rhs))

    def test_linearity_in_lower_slot(self, example51):
        conn = example51.connection
        chart = example51.chart
        f = chart.parse("x^2 - 1/z")
        x = txt_vec(example51, ("1", "z", "0"))
        y = txt_vec(example51, ("y", "0", "1/z"))
        fx = tuple(f * c for c in x)
        lhs = cov_deriv_vector(conn, fx, y)
        rhs = tuple(f * c for c in cov_deriv_vector(conn, x, y))
        assert all((a - b).is_zero for a, b in zip(lhs, rhs))


class TestCovDerivTensor:
    def test_metric_is_parallel(self, example51, desitter3):
        for data in (example51, desitter3):
            g_tensor = FrameTensor.build((0, 2), data.dim, lambda i, j: data.metric.g[i][j])
            assert cov_deriv_tensor(data.connection, g_tensor).is_zero()

    def test_nabla_ricci_direction_one(self, example51):
        # hand value: (s + t)/z with s = 3/z^2 - z^2, t = -4/z^2
        expected = example51.chart.parse("-(z + 1/z^3)")
        assert example51.nabla_ricci.comp(0, 0, 2) == expected
        assert example51.nabla_ricci.comp(0, 2, 0) == expected
        assert example51.nabla_ricci.comp(0, 0, 0).is_zero
        assert example51.nabla_ricci.comp(0, 1, 2).is_zero

    def test_nabla_ricci_xi_direction_is_not_zero(self, example51):
        # d/dz of the Ricci diagonal: the published claim of zero is not
        # reproducible from any printed Ricci values
        assert example51.nabla_ricci.comp(2, 0, 0) == example51.chart.parse("-2*z - 6/z^3")
        assert example51.nabla_ricci.comp(2, 2, 2) == example51.chart.parse("8/z^3")

    def test_flat_space_derivatives_have_empty_support(self, flat3):
        # R and S store no leaf, so nothing is evaluated; the zero leaf
        # still has the shape of the tensor's leaves
        zero = flat3.chart.zero()
        nabla_r, nabla_s = flat3.nabla_riemann, flat3.nabla_ricci
        assert nabla_r.is_zero() and nabla_r.zero == (zero,) * 3 and nabla_r.comp(0, 1, 2, 0) == (zero,) * 3
        assert nabla_s.is_zero() and nabla_s.zero == zero and nabla_s.comp(2, 1, 0) == zero

    @pytest.mark.parametrize(
        "name", ["example51", "flat3", "desitter3", "lcs4", "lcs5", "desitter4", "desitter5", *AD_HOC]
    )
    def test_half_rule_equals_the_formula_at_every_index(self, name):
        # nabla R is evaluated at x < y only and mirrored; the gather formula
        # evaluates every (w, x, y, z) on its own
        data = ad_hoc(name) if name in AD_HOC else builtin(name)
        conn = data.connection
        full = gather_cov_deriv_tensor(data.stack.riemann13, conn.gamma, conn.frame.fields)
        assert list(data.nabla_riemann.comps.items()) == list(full.comps.items())
        assert data.nabla_riemann.zero == full.zero

    @pytest.mark.parametrize("name", ["example51", "lcs4", "lcs5", "desitter4", "dense-style"])
    def test_bianchi_support_is_the_full_tensor_off_repeated_directions(self, name):
        # the self-checks' nabla R holds exactly the full tensor's leaves
        # (w, x, y, z) with w not in {x, y}, equal and in the same order
        data = ad_hoc(name) if name in AD_HOC else builtin(name)
        full = data.nabla_riemann
        ours = cov_deriv_tensor(data.connection, data.stack.riemann13, bianchi=True)
        expected = [(idx, leaf) for idx, leaf in full.comps.items() if idx[0] not in idx[1:3]]
        assert list(ours.comps.items()) == expected
        assert ours.zero == full.zero
        assert expected or full.is_zero()

    @pytest.mark.parametrize("kind", ["R(xi,X).M", "C(xi,X).S", "L_xi g", "nabla phi"])
    @pytest.mark.parametrize("name", ["example51", "lcs5", *AD_HOC])
    def test_every_derivation_equals_the_formula_at_every_index(self, name, kind):
        # the scatter, with the half rule for M, against the gather formula at
        # every index, for each derivation the engine forms besides nabla R/S;
        # xi is the frame's designated field, phi the shape X + eta(X) xi
        data = ad_hoc(name) if name in AD_HOC else builtin(name)
        tensor, ops, fields = derivation_inputs(data, kind)
        if tensor.valence == (1, 3):  # the half rule's hypothesis, on M's stored leaves
            assert all(tensor.comp(y, x, z) == tuple(-e for e in leaf) for (x, y, z), leaf in tensor.comps.items())
        ours = derivation(tensor, ops, fields)
        full = gather_cov_deriv_tensor(tensor, ops, fields)
        assert list(ours.comps.items()) == list(full.comps.items())
        assert ours.zero == full.zero

    @pytest.mark.parametrize("name", ["dense-style", "lcs5"])
    def test_half_rule_makes_fewer_gcd_calls(self, monkeypatch, name):
        data = ad_hoc(name) if name in AD_HOC else builtin(name)
        conn, riem = data.connection, data.stack.riemann13
        half = gcd_calls(monkeypatch, lambda: cov_deriv_tensor(conn, riem))
        assert half < gcd_calls(monkeypatch, lambda: gather_cov_deriv_tensor(riem, conn.gamma, conn.frame.fields))

    def test_one_sum_per_component_makes_fewer_gcd_calls(self, monkeypatch):
        # R and nabla R normalise each component once (Expr.sum); the pairwise
        # fold normalises every partial sum.  Both take the half rule.
        data = ad_hoc("dense-style")
        conn, brackets = data.connection, data.brackets

        def summed():
            cov_deriv_tensor(conn, riemann(conn, brackets))

        def pairwise():
            riem = pairwise_riemann(conn, brackets)
            gather_cov_deriv_tensor(riem, conn.gamma, conn.frame.fields, where=lambda w, x, y, z: x < y, pairwise=True)

        assert gcd_calls(monkeypatch, summed) < gcd_calls(monkeypatch, pairwise)

    @pytest.mark.parametrize("name", sorted(AD_HOC))
    def test_summed_leaves_are_in_lowest_terms(self, name):
        # each component of R and nabla R is normalised once, at the end of its
        # sum; normalising a stored leaf again must change nothing
        data = ad_hoc(name)
        for tensor in (data.stack.riemann13, data.nabla_riemann):
            for e in (e for leaf in tensor.comps.values() for e in leaf):
                again = Expr(e.vars, e.num, e.den)
                assert (again.num, again.den) == (e.num, e.den)

    def test_unsupported_valence(self, example51):
        t = FrameTensor.build((0, 1), 3, lambda i: example51.chart.zero())
        with pytest.raises(GeometryError):
            cov_deriv_tensor(example51.connection, t)


def derivation_inputs(data, kind):
    """(tensor, ops, fields) of one derivation the engine forms, with xi the
    frame's designated field; phi is the shape X + eta(X) xi, which the
    ``phi-shape`` axiom checks on every input with a structure."""
    conn, frame = data.connection, data.frame
    n = data.dim
    xi = data.xi_components()
    if kind == "R(xi,X).M":
        return data.m_projective, xi_action(data.stack.riemann13, xi), None
    if kind == "C(xi,X).S":
        return data.stack.ricci, xi_action(data.concircular, xi), None
    if kind == "L_xi g":
        v = frame.from_components(xi)
        g = FrameTensor.build((0, 2), n, lambda i, j: data.metric.g[i][j])
        return g, [[decompose(lie_bracket(v, f), frame) for f in frame.fields]], [v]
    eta = data.metric.lower(xi)
    phi = FrameTensor.build((1, 1), n, lambda i: vec_add(frame.unit(i), vec_scale(eta[i], xi)))
    return phi, conn.gamma, frame.fields


class TestLieDerivative:
    def test_along_xi_matches_structure_shape(self, example51):
        st = example51.structure
        lie = example51.lie_metric(example51.xi_components())
        n = example51.dim
        for i in range(n):
            for j in range(n):
                expected = 2 * st.alpha * (example51.metric.g[i][j] + st.eta[i] * st.eta[j])
                assert lie.comp(i, j) == expected

    def test_constant_field_on_flat_space_is_killing(self, flat3):
        v = txt_vec(flat3, ("2", "1", "-3"))
        assert flat3.lie_metric(v).is_zero()

    def test_symmetry_for_random_fields(self, example51):
        rng = random.Random(9)
        pool = ["x", "y", "z", "1", "x*z", "0"]
        for _ in range(4):
            v = txt_vec(example51, tuple(rng.choice(pool) for _ in range(3)))
            lie = example51.lie_metric(v)
            for i in range(3):
                for j in range(3):
                    assert lie.comp(i, j) == lie.comp(j, i)


def test_koszul_invariants_on_random_manifolds():
    # upper-triangular polynomial frames are always invertible
    rng = random.Random(21)
    pool = ["1", "z", "x + 1", "y", "x*z", "2"]
    for trial in range(3):
        rows = [
            [rng.choice(pool), rng.choice(pool), rng.choice(pool)],
            ["0", rng.choice(["1", "z", "x + 1"]), rng.choice(pool)],
            ["0", "0", rng.choice(["1", "z", "2"])],
        ]
        data = make_manifold(f"random{trial}", rows)
        n = data.dim
        for i in range(n):
            for j in range(n):
                diff = tuple(
                    a - b - c
                    for a, b, c in zip(
                        data.connection.gamma[i][j], data.connection.gamma[j][i], data.brackets[i][j]
                    )
                )
                assert all(e.is_zero for e in diff)
        g_tensor = FrameTensor.build((0, 2), n, lambda i, j: data.metric.g[i][j])
        assert cov_deriv_tensor(data.connection, g_tensor).is_zero()
        checks = data.stack.self_check(data.metric, data.connection)
        assert all(ok for _, ok in checks), (trial, checks)
