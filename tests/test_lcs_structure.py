import json

import pytest

from lcslab.cli import main
from lcslab.frame_geometry import FrameTensor, vec_scale
from lcslab.axioms import verify_axioms
from lcslab.einstein import classify, solve_two_unknowns
from lcslab.lcs_structure import NotLcsError, _solve_proportionality, derive_structure
from lcslab.manifold import ManifoldData

from conftest import builtin, frame_field, make_manifold, milne, reference_verify_axioms, warped_frames, xi_at_every_index


class TestDeriveStructure:
    def test_reference_scalars(self, example51):
        st = example51.structure
        assert st.alpha == example51.chart.parse("-1/z")
        assert st.rho == example51.chart.parse("-1/z^2")
        assert st.beta == example51.chart.parse("-2/z^3")

    def test_phi_action(self, example51):
        st = example51.structure
        assert st.phi.comp(0) == example51.frame.unit(0)
        assert st.phi.comp(1) == example51.frame.unit(1)
        assert all(e.is_zero for e in st.phi.comp(2))

    def test_phi_is_nabla_xi_over_alpha(self):
        # phi is built from the shape X + eta(X) xi that alpha was solved
        # against, which is (1/alpha) nabla xi exactly, direction by direction
        structures = [builtin(name) for name in ["example51", *(f"lcs{n}" for n in range(3, 7))]]
        structures += [builtin(f"desitter{n}") for n in range(3, 6)] + list(warped_frames(3, 4)) + [milne(3), milne(4)]
        for data in structures:
            st, k = data.structure, data.xi_index
            for i in range(data.dim):
                expected = vec_scale(data.chart.one() / st.alpha, data.connection.gamma[i][k])
                assert st.phi.comp(i) == expected, (data.name, i)

    def test_eta_components(self, example51):
        st = example51.structure
        assert st.eta == (example51.chart.zero(), example51.chart.zero(), example51.chart.const(-1))

    def test_desitter_constant_alpha(self, desitter3):
        st = desitter3.structure
        assert st.alpha == desitter3.chart.const(-1)
        assert st.rho.is_zero and st.beta.is_zero

    def test_flat_space_alpha_vanishes(self, flat3):
        # check-lcs reports the zero-alpha structure; the cached one refuses it
        st = derive_structure(flat3)
        assert st.alpha.is_zero
        with pytest.raises(NotLcsError, match="identically zero"):
            flat3.structure

    def test_spacelike_designation_rejected(self, example51):
        spacelike = ManifoldData("spacelike", example51.frame, example51.metric, 0)
        with pytest.raises(NotLcsError, match="unit timelike"):
            derive_structure(spacelike)

    def test_dalpha_off_eta_refused(self, tmp_path, capsys):
        # E_1 = (xz + 1) d_x, E_2 = (xz + 1) d_y, E_3 = d_z: alpha = -x/(xz + 1)
        # and E_1(alpha) = -1/(xz + 1), yet eta vanishes along E_1
        payload = {
            "name": "dalpha-off-eta",
            "coords": ["x", "y", "z"],
            "frame": [["x*z + 1", "0", "0"], ["0", "x*z + 1", "0"], ["0", "0", "1"]],
            "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
            "xi": 3,
        }
        path = tmp_path / "def.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["check-lcs", str(path), "--json"]) == 1
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [(e["check_id"], e["status"], e["note"]) for e in entries] == [
            ("structure", "fail", "d(alpha) is not proportional to eta along direction 0")
        ]

    def test_inconsistent_scalars_refused(self, example51):
        one, two = example51.chart.const(1), example51.chart.const(2)
        with pytest.raises(NotLcsError) as info:
            _solve_proportionality((one, one), (one, two), "beta")
        assert str(info.value) == "beta: inconsistent scalars 1 and 1/2"

    def test_determinism(self, example51):
        a = derive_structure(example51)
        b = derive_structure(example51)
        assert a.alpha == b.alpha and a.rho == b.rho and a.beta == b.beta
        assert str(a.alpha) == str(b.alpha)
        assert a.phi.comps == b.phi.comps and a.eta == b.eta

    def test_xi_at_every_index(self, example51):
        # every built-in has xi = E_(n-1): here xi = E_k sits at each index k,
        # and g(xi,xi), eta and rho are formed here from the unit vector of E_k
        # and the field sum_i unit_i E_i; dense-style has no structure, so
        # there only the unit timelike test is read
        found = 0
        for data in xi_at_every_index():
            k, metric = data.xi_index, data.metric
            unit = data.frame.unit(k)
            norm, minus_one = metric.pair(unit, unit), data.chart.const(-1)
            try:
                st = derive_structure(data)
            except NotLcsError as exc:
                assert data.name == "dense-style"
                if norm != minus_one:
                    assert str(exc) == f"designated field is not unit timelike: g(xi,xi) = {norm}"
                continue
            found += 1
            assert norm == minus_one
            assert st.xi == unit and st.eta == metric.lower(unit)
            assert st.rho == -frame_field(data.frame, unit).apply(st.alpha)
            assert (st.alpha, st.rho, st.beta) == (example51.structure.alpha, example51.structure.rho, example51.structure.beta)
        assert found == 6


class TestVerifyAxioms:
    def test_all_pass_on_reference(self, example51):
        checks = verify_axioms(example51, example51.structure)
        assert len(checks) == 14
        assert [c.axiom for c in checks if c.detail] == []

    def test_all_pass_on_desitter(self, desitter3):
        checks = verify_axioms(desitter3, desitter3.structure)
        assert [c.axiom for c in checks if c.detail] == []

    @pytest.mark.parametrize("n", [4, 5, 6], ids=["lcs4", "lcs5", "lcs6"])
    def test_all_pass_on_lcs_n(self, n):
        # at n = 3 the (n-1) of ricci-into-xi is 2, so only n > 3 pins it
        data = builtin(f"lcs{n}")
        checks = verify_axioms(data, data.structure)
        assert len(checks) == 14
        assert [c.axiom for c in checks if c.detail] == []

    @pytest.mark.parametrize("n", [3, 4], ids=["milne3", "milne4"])
    def test_all_pass_on_milne(self, n):
        # a flat (LCS)_n: every axiom holds with alpha^2 - rho = 0 and R = 0,
        # and so do the curvature self-checks
        data = milne(n)
        st, chart = data.structure, data.chart
        assert (st.alpha, st.rho) == (chart.parse("1/t"), chart.parse("1/t^2"))
        assert (st.alpha * st.alpha - st.rho).is_zero and data.stack.riemann13.is_zero
        checks = verify_axioms(data, st)
        assert len(checks) == 14
        assert [c.axiom for c in checks if c.detail] == []
        self_checks = data.stack.self_check(data.metric, data.connection)
        assert len(self_checks) == 7 and all(ok for _, ok in self_checks)

    def test_flat_space_fails_only_the_alpha_axiom(self, flat3):
        st = derive_structure(flat3)
        checks = verify_axioms(flat3, st)
        failed = [c.axiom for c in checks if c.detail]
        assert failed == ["eta-covariant-derivative"]


# Every input with a structure: the built-ins and the seeded warped 3-D
# frames of conftest.warped_frames.  The true structure passes every axiom
# (flat3's has alpha = 0); each tampered one below breaks some.
AXIOM_INPUTS = ["example51", "flat3"] + [f"{family}{n}" for family in ("lcs", "desitter") for n in range(3, 7)]


def tampered(data, st):
    """The structure itself, then six structures that are not it."""
    x = data.chart.parse(data.chart.coords[0].name)
    phi = st.phi._replace(comps={idx: tuple(3 * e for e in leaf) for idx, leaf in st.phi.comps.items()})
    yield "true", st
    yield "alpha+1", st._replace(alpha=st.alpha + 1)
    yield "2rho", st._replace(rho=2 * st.rho)
    yield "beta+x", st._replace(beta=st.beta + x)
    yield "2eta", st._replace(eta=tuple(2 * e for e in st.eta))
    yield "xi-reversed", st._replace(xi=st.xi[::-1])
    yield "3phi", st._replace(phi=phi)


def axiom_corpus():
    for data in [builtin(name) for name in AXIOM_INPUTS] + list(warped_frames(4, 3)):
        for label, st in tampered(data, derive_structure(data)):
            yield data, label, st


# failing details recorded from the per-axiom index loops that
# conftest.reference_verify_axioms models: (input, tampering, axiom) -> detail
AXIOM_DETAILS = {
    ("example51", "xi-reversed", "xi-unit-timelike"): "residual 2",
    ("example51", "xi-reversed", "ricci-into-xi"): "residual (-1*z^4 + 3)/z^2",
    ("example51", "alpha+1", "eta-of-curvature"): "residual (-z + 2)/z",
    ("example51", "3phi", "phi-square"): "residual 8",
    ("desitter3", "alpha+1", "eta-covariant-derivative"): "alpha = 0",
    ("lcs4", "alpha+1", "ricci-into-xi"): "residual (3*t - 6)/t",
    ("lcs4", "beta+x", "rho-gradient"): "residual x1",
}


class TestAxiomFailures:
    def test_every_axiom_matches_the_reference_model(self):
        failed = set()
        for data, label, st in axiom_corpus():
            ours, theirs = verify_axioms(data, st), reference_verify_axioms(data, st)
            assert len(ours) == len(theirs) == 14, (data.name, label)
            for check, model in zip(ours, theirs):
                for field in check._fields:
                    assert getattr(check, field) == getattr(model, field), (data.name, label, check.axiom, field)
            if label == "true":
                expected = {"eta-covariant-derivative"} if data.name == "flat3" else set()
                assert {c.axiom for c in ours if c.detail} == expected, data.name
            failed.update(c.axiom for c in ours if c.detail)
        assert failed == {c.axiom for c in ours}

    @pytest.mark.parametrize("name, label, axiom", sorted(AXIOM_DETAILS))
    def test_failure_detail(self, name, label, axiom):
        data = builtin(name)
        st = dict(tampered(data, derive_structure(data)))[label]
        check = next(c for c in verify_axioms(data, st) if c.axiom == axiom)
        assert check.detail == AXIOM_DETAILS[name, label, axiom]


class TestClassify:
    def test_plain_einstein(self, desitter3):
        verdict = classify(desitter3.stack.ricci, desitter3.metric, desitter3.structure.eta)
        assert verdict.kind == "Einstein"
        assert verdict.a == desitter3.chart.const(2)
        assert verdict.b.is_zero

    def test_scaled_metric_is_einstein(self, example51):
        chart = example51.chart
        five_g = FrameTensor.build((0, 2), 3, lambda i, j: 5 * example51.metric.g[i][j])
        verdict = classify(five_g, example51.metric, example51.structure.eta)
        assert verdict.kind == "Einstein" and verdict.a == chart.const(5)

    def test_constructed_eta_einstein_shape(self, example51):
        chart = example51.chart
        st = example51.structure
        k = chart.parse("z^2 + 1")
        s = FrameTensor.build(
            (0, 2), 3, lambda i, j: k * example51.metric.g[i][j] - st.alpha * st.eta[i] * st.eta[j]
        )
        verdict = classify(s, example51.metric, st.eta)
        assert verdict.kind == "EtaEinstein"
        assert verdict.a == k and verdict.b == -st.alpha

    def test_reference_ricci_decomposes(self, example51):
        # the engine Ricci is diagonal (s, s, t) with eta = (0,0,-1), so
        # a = s, b = s + t solves S = a g + b eta x eta exactly
        verdict = classify(example51.stack.ricci, example51.metric, example51.structure.eta)
        assert verdict.kind == "EtaEinstein"
        assert verdict.a == example51.chart.parse("3/z^2 - z^2")
        assert verdict.b == example51.chart.parse("-(z^2 + 1/z^2)")
        residual = FrameTensor.build(
            (0, 2),
            3,
            lambda i, j: example51.stack.ricci.comp(i, j)
            - verdict.a * example51.metric.g[i][j]
            - verdict.b * example51.structure.eta[i] * example51.structure.eta[j],
        )
        assert residual.is_zero

    def test_neither_when_no_solution(self, example51):
        chart = example51.chart
        bad = FrameTensor.build((0, 2), 3, lambda i, j: chart.parse("x") if i != j else chart.one())
        verdict = classify(bad, example51.metric, example51.structure.eta)
        assert verdict.kind == "Neither"
        assert verdict.a is None and verdict.b is None

    def test_frame_permutation_invariance(self, example51):
        s = example51.stack.ricci
        g = example51.metric.g
        eta = example51.structure.eta
        base = classify(s, example51.metric, eta)

        permuted = make_manifold(
            "permuted",
            (("0", "z", "0"), ("0", "0", "1"), ("z*x", "z*y", "0")),
            xi_index=1,
            metric_rows=(("1", "0", "0"), ("0", "-1", "0"), ("0", "0", "1")),
        )
        verdict = classify(permuted.stack.ricci, permuted.metric, permuted.structure.eta)
        assert verdict.kind == base.kind
        assert verdict.a == base.a and verdict.b == base.b


class TestTwoUnknownSolver:
    def test_unique_solution(self, example51):
        chart = example51.chart
        rows = [
            (chart.one(), chart.zero(), chart.parse("x")),
            (chart.zero(), chart.one(), chart.parse("y")),
            (chart.one(), chart.one(), chart.parse("x + y")),
        ]
        assert solve_two_unknowns(rows) == (chart.parse("x"), chart.parse("y"))

    def test_underdetermined_defaults_to_zero(self, example51):
        chart = example51.chart
        rows = [(chart.const(2), chart.const(3), chart.zero())]
        assert solve_two_unknowns(rows) == (chart.zero(), chart.zero())

    def test_all_trivial_rows(self, example51):
        chart = example51.chart
        rows = [(chart.zero(), chart.zero(), chart.zero())] * 4
        assert solve_two_unknowns(rows) == (chart.zero(), chart.zero())
