import json
import random
from fractions import Fraction

import pytest

from lcslab import cli, conditions, derived_conditions, einstein, frame_geometry, lcs_structure
from lcslab.conditions import NoSolution, RecurrenceForms, recurrence_fit, recurrence_residual, sgr_predictions
from lcslab.derived_conditions import derived_condition_residuals, nabla_r_xi_identity
from lcslab.frame_geometry import FrameTensor
from lcslab.lcs_structure import NotLcsError
from lcslab.soliton import soliton_k, soliton_lambda, soliton_residual

from conftest import (
    builtin,
    fit_rows,
    make_manifold,
    milne,
    milne_forms,
    pivot_solve,
    reference_fit,
    warped_frames,
    xi_at_every_index,
)


def zero_forms(data):
    zeros = (data.chart.zero(),) * data.dim
    return RecurrenceForms(zeros, zeros)


class TestRecurrenceResidual:
    def test_flat_space_trivial_forms(self, flat3):
        for kind in ("SGR", "SGRR"):
            assert recurrence_residual(flat3, kind, zero_forms(flat3)).is_zero

    def test_reference_manifold_is_not_ricci_symmetric(self, example51):
        residual = recurrence_residual(example51, "SGRR", zero_forms(example51))
        assert not residual.is_zero
        # with zero forms the residual IS nabla S
        assert residual.comp(0, 0, 2) == example51.nabla_ricci.comp(0, 0, 2)

    def test_sgr_zero_forms_residual_is_nabla_r(self, example51):
        residual = recurrence_residual(example51, "SGR", zero_forms(example51))
        assert not residual.is_zero
        assert residual.comp(2, 0, 2, 2) == example51.nabla_riemann.comp(2, 0, 2, 2)

    def test_sgpr_applies_phi_squared(self, example51):
        residual = recurrence_residual(example51, "SGPR", zero_forms(example51))
        assert not residual.is_zero
        st = example51.structure
        expected = st.phi_of(st.phi_of(example51.nabla_riemann.comp(2, 0, 2, 2)))
        assert residual.comp(2, 0, 2, 2) == tuple(expected)


class TestRecurrenceResidualZeroPaths:
    def test_desitter_sgr_zero_forms(self, desitter3):
        # parallel curvature: nabla R = 0, so zero forms satisfy the condition
        assert recurrence_residual(desitter3, "SGR", zero_forms(desitter3)).is_zero

    def test_desitter_sgpr_zero_forms(self, desitter3):
        assert recurrence_residual(desitter3, "SGPR", zero_forms(desitter3)).is_zero

    def test_nonzero_forms_break_flat_space(self, flat3):
        # B x (g-term) is nonzero whenever B is, even on flat space
        chart = flat3.chart
        forms = RecurrenceForms((chart.zero(),) * 3, (chart.one(), chart.zero(), chart.zero()))
        residual = recurrence_residual(flat3, "SGR", forms)
        assert not residual.is_zero
        # component (W=1; X=1, Y=1, Z=1, upper=1): -B(E1) g(E1,E1)
        assert residual.comp(0, 0, 0, 0)[0] == chart.const(-1)


class TestRecurrenceFit:
    def test_flat_space_returns_zero_forms(self, flat3):
        for kind in ("SGR", "SGRR"):
            forms = recurrence_fit(flat3, kind)
            assert isinstance(forms, RecurrenceForms)
            assert all(e.is_zero for e in forms.a + forms.b)

    def test_desitter_parallel_tensors_fit_trivially(self, desitter3):
        forms = recurrence_fit(desitter3, "SGRR")
        assert isinstance(forms, RecurrenceForms)
        assert all(e.is_zero for e in forms.a + forms.b)

    def test_reference_manifold_has_no_sgrr_solution(self, example51):
        result = recurrence_fit(example51, "SGRR")
        assert isinstance(result, NoSolution)
        assert result.direction == 0
        assert result.component == (0, 2)
        assert result.needed == example51.chart.parse("-(z + 1/z^3)")

    def test_sgpr_fit_rejected(self, example51):
        with pytest.raises(ValueError):
            recurrence_fit(example51, "SGPR")

    def test_fit_roundtrip_over_corpus(self, example51, flat3, desitter3):
        manifolds = [example51, flat3, desitter3]
        rng = random.Random(31)
        pool = ["1", "z", "x + 1", "y", "2", "x*z"]
        for trial in range(3):
            rows = [
                [rng.choice(pool), rng.choice(pool), rng.choice(pool)],
                ["0", rng.choice(["1", "z", "x + 1"]), rng.choice(pool)],
                ["0", "0", rng.choice(["1", "z", "2"])],
            ]
            manifolds.append(make_manifold(f"corpus{trial}", rows))
        for data in manifolds:
            for kind in ("SGR", "SGRR"):
                result = recurrence_fit(data, kind)
                assert isinstance(result, (RecurrenceForms, NoSolution))
                if isinstance(result, RecurrenceForms):
                    assert recurrence_residual(data, kind, result).is_zero, (data.name, kind)


# the fit's witnesses at n != 3, as recorded from the row-by-row check that
# conftest.reference_fit models: (direction, component, needed, detail)
FIT_WITNESSES = {
    ("lcs4", "SGR"): (0, (0, 1, 1, 3), "(t^4 + 1)/t^3", "the condition forces 0 = (t^4 + 1)/t^3"),
    ("lcs4", "SGRR"): (0, (0, 3), "-(t^4 + 2)/t^3", "the condition forces 0 = (-1*t^4 - 2)/t^3"),
    ("lcs5", "SGR"): (0, (0, 1, 1, 4), "(t^4 + 1)/t^3", "the condition forces 0 = (t^4 + 1)/t^3"),
    ("lcs5", "SGRR"): (0, (0, 4), "-(t^4 + 3)/t^3", "the condition forces 0 = (-1*t^4 - 3)/t^3"),
    ("example51", "SGR"): (0, (0, 1, 1, 2), "(z^4 + 1)/z^3", "the condition forces 0 = (z^4 + 1)/z^3"),
}

# upper-triangular 3-D frames with constant or linear diagonal cells; seed 2
# reaches every outcome of the fit (see test_fit_matches_the_reference_model)
RANDOM_DIAGONAL = ["1", "2", "-1", "3", "-2", "1", "z"]
RANDOM_CELLS = ["0", "1", "2", "-1", "x", "y", "z", "x + 1", "y - z", "2*z + 1", "x*z", "y^2", "x - 2*y"]


def random_frames(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        d, c = RANDOM_DIAGONAL, RANDOM_CELLS
        rows = [[rng.choice(d), rng.choice(c), rng.choice(c)], ["0", rng.choice(d), rng.choice(c)], ["0", "0", rng.choice(d)]]
        yield make_manifold(f"random{k}", rows)


class TestFitOutcomes:
    @pytest.mark.parametrize("name, kind", sorted(FIT_WITNESSES))
    def test_witness_at_higher_dimension(self, name, kind):
        data = builtin(name)
        result = recurrence_fit(data, kind)
        direction, component, needed, detail = FIT_WITNESSES[name, kind]
        assert isinstance(result, NoSolution)
        assert result.direction == direction
        assert result.component == component
        assert result.needed == data.chart.parse(needed)
        assert result.detail == detail

    @pytest.mark.parametrize("name", ["desitter4", "desitter5"])
    @pytest.mark.parametrize("kind", ["SGR", "SGRR"])
    def test_forms_at_higher_dimension(self, name, kind):
        # nabla R = 0 and nabla S = 0: every direction is underdetermined
        # or solved by zero
        data = builtin(name)
        result = recurrence_fit(data, kind)
        zeros = (data.chart.zero(),) * data.dim
        assert isinstance(result, RecurrenceForms)
        assert (result.a, result.b) == (zeros, zeros)

    @pytest.mark.parametrize("name, kind", sorted(FIT_WITNESSES) + [("example51", "SGRR")])
    def test_inconsistency_witness_is_first(self, name, kind):
        # the witness is the first nonzero component, in (leaf, u) order, of
        # the residual that check builds from the pivot solution of its
        # direction (the other directions do not reach those components)
        data = builtin(name)
        witness = recurrence_fit(data, kind)
        w = witness.direction
        u, v = pivot_solve(fit_rows(data, kind, w)[0])
        zero = data.chart.zero()
        forms = RecurrenceForms(*(tuple(c if i == w else zero for i in range(data.dim)) for c in (u, v)))
        residual = recurrence_residual(data, kind, forms)
        vector = residual.valence[0] == 1
        first = next(
            idx[1:] + ((c,) if vector else ())
            for idx, leaf in residual.comps.items()
            if idx[0] == w
            for c, e in enumerate(leaf if vector else (leaf,))
            if not e.is_zero
        )
        assert first == witness.component

    def test_fit_matches_the_reference_model(self):
        names = [f"{family}{n}" for family in ("lcs", "desitter") for n in range(3, 8)] + ["example51", "flat3"]
        seen = set()
        for data in [builtin(name) for name in names] + list(random_frames(2, 60)):
            for kind in ("SGR", "SGRR"):
                ours, theirs = recurrence_fit(data, kind), reference_fit(data, kind)
                assert type(ours) is type(theirs), (data.name, kind)
                for field in ours._fields:
                    assert getattr(ours, field) == getattr(theirs, field), (data.name, kind, field)
                if isinstance(ours, NoSolution):
                    seen.add((ours.detail.startswith("the condition forces"), ours.direction > 0))
                else:
                    seen.add(any(not e.is_zero for e in ours.a + ours.b))
        # forms zero and nonzero; witnesses of both kinds, in direction 0 and later
        assert seen >= {False, True, (True, False), (False, False), (True, True)}

    def test_fit_forms_the_support_of_each_direction_once_and_stops_at_the_witness(self, monkeypatch):
        formed = []  # one list of formed leaves per residual
        build, shipped = FrameTensor.build, frame_geometry.residual

        def recording(lhs, p, q, u, v):
            leaves = []

            def recording_build(cls, valence, n, fn, support=None):
                return build(valence, n, lambda *idx: leaves.append(idx) or fn(*idx), support)

            with monkeypatch.context() as m:
                m.setattr(FrameTensor, "build", classmethod(recording_build))
                out = shipped(lhs, p, q, u, v)
            formed.append(leaves)
            return out

        monkeypatch.setattr(einstein, "residual", recording)
        # lcs4 SGR stops at its witness in direction E1: only E1's residual is
        # formed, each leaf once, on its support; the pivot solution there is
        # A(E1) = B(E1) = 0, so the support is the leaves of nabla_1 R
        data = builtin("lcs4")
        assert recurrence_fit(data, "SGR").direction == 0
        u, v = pivot_solve(fit_rows(data, "SGR", 0)[0])
        assert u.is_zero and v.is_zero
        support = [idx[1:] for idx in data.nabla_riemann.comps if idx[0] == 0]
        assert formed == [support] and 0 < len(support) < 4**3
        # desitter4: nabla R = 0 and zero forms in every direction, so no leaf
        # is formed (an all-index walk formed 4^4)
        formed.clear()
        assert isinstance(recurrence_fit(builtin("desitter4"), "SGR"), RecurrenceForms)
        assert formed == [[]] * 4

    def test_fit_builds_no_residual_and_check_one(self, monkeypatch, tmp_path):
        calls = []
        shipped = conditions.recurrence_residual

        def counted(*args):
            calls.append(args[1])
            return shipped(*args)

        monkeypatch.setattr(conditions, "recurrence_residual", counted)
        forms = tmp_path / "forms.json"
        forms.write_text(json.dumps({"A": ["0"] * 4, "B": ["0"] * 4}), encoding="utf-8")
        data = builtin("desitter4")
        for kind in ("SGR", "SGRR"):
            report = cli.run("fit", data, {"kind": kind}).to_json()
            assert f"fit.{kind}.roundtrip" in report and not calls
        assert cli.run("check", data, {"kind": "SGR", "forms": str(forms)}).to_json()
        assert calls == ["SGR"]


# R(E_x,E_x) = 0 and (nabla_w R)(E_x,E_x) = 0, so at (w; x, x, z) the SGR
# residual  nabla_w R - A(E_w) R - B(E_w) g(.,.) E_x  is  -B(E_w) g(E_x,E_z) E_x
# for any forms; a zero residual therefore needs B = 0 (g is nondegenerate)
LEMMA_BUILTINS = ["example51", "lcs4", "lcs5", "lcs6", "desitter4", "desitter5"]


def lemma_inputs():
    return [builtin(name) for name in LEMMA_BUILTINS] + list(random_frames(2, 60))


class TestSgrLemma:
    def test_diagonal_residual_is_minus_b_g_e_x(self):
        rng = random.Random(5)
        for data in lemma_inputs():
            n, chart, g = data.dim, data.chart, data.metric.g
            pool = ["1", "-2", "3/2"] + [f"{c.name} + {k}" for c in chart.coords for k in (1, 2)]
            pool += [f"1/{c.name}" for c in chart.coords]
            a = [chart.parse(rng.choice(pool)) for _ in range(n)]
            b = [chart.parse(rng.choice(pool)) for _ in range(n)]
            assert not any(e.is_zero for e in a + b)
            residual = recurrence_residual(data, "SGR", RecurrenceForms(tuple(a), tuple(b)))
            zero = chart.zero()
            for w in range(n):
                for x in range(n):
                    for z in range(n):
                        expected = [-(b[w] * g[x][z]) if u == x else zero for u in range(n)]
                        assert list(residual.comp(w, x, x, z)) == expected, (data.name, w, x, z)

    def test_fitted_forms_have_b_zero(self):
        fitted = nonzero_a = 0
        for data in lemma_inputs():
            result = recurrence_fit(data, "SGR")
            if isinstance(result, RecurrenceForms):
                fitted += 1
                nonzero_a += any(not e.is_zero for e in result.a)
                assert all(e.is_zero for e in result.b), data.name
        # desitter4 and desitter5 fit zero forms; two seeded frames fit a nonzero A
        assert fitted >= 3 and nonzero_a >= 1

    def test_fit_duals_raise_the_fitted_forms(self):
        # the seeded frame random11 fits A = (-4/z, -2, -2/z) and B = 0 with
        # g = diag(1, 1, -1), so g^-1 = diag(1, 1, -1): rho1 = g^-1 A is
        # (-4/z, -2, 2/z), which differs from A in its xi component, and rho2 = 0
        data = list(random_frames(2, 12))[11]
        chart = data.chart
        forms = recurrence_fit(data, "SGR")
        assert forms.a == tuple(map(chart.parse, ("-4/z", "-2", "-2/z")))
        assert all(e.is_zero for e in forms.b)
        g_inverse = [chart.parse(c) for c in ("1", "1", "-1")]
        rho1 = tuple(g * a for g, a in zip(g_inverse, forms.a))
        assert rho1 != forms.a and data.xi_index == 2
        entries = {e.check_id: e for e in cli.run("fit", data, {"kind": "SGR"}).entries}
        assert entries["fit.SGR.duals"].engine == f"{cli.format_vector(rho1)}; 0" == "(-4/z) E1 + -2 E2 + (2/z) E3; 0"


# With k = alpha^2 - rho and W, X, Y orthogonal to xi (in an adapted frame,
# the indices other than xi's), an (LCS)_n has
#   (nabla_W S)(X, xi) = alpha[(n-1)k g(W,X) - S(W,X)],
#   (nabla_W R)(X,Y)xi = alpha[k(g(W,Y)X - g(W,X)Y) - R(X,Y)W].
# The SGRR and SGR right-hand sides vanish at these leaves for any forms, so
# with alpha != 0 SGRR needs S = (n-1)k g there, and SGR needs R(X,Y)W =
# k(g(W,Y)X - g(W,X)Y): an Einstein S, and constant-curvature form on xi-perp.
RIGIDITY_BUILTINS = ["example51"] + [f"lcs{n}" for n in range(3, 7)] + [f"desitter{n}" for n in range(3, 6)]


def basis(data, i):
    return [data.chart.const(int(u == i)) for u in range(data.dim)]


def rigidity_inputs():
    for data in [builtin(name) for name in RIGIDITY_BUILTINS] + list(warped_frames(4, 3)):
        st, g, xi = data.structure, data.metric.g, data.xi_index
        perp = [i for i in range(data.dim) if i != xi]
        # the formulas read xi as the frame field E_xi, orthogonal to the others
        assert list(st.xi) == basis(data, xi) and all(g[xi][i].is_zero for i in perp), data.name
        yield data, st.alpha, st.alpha * st.alpha - st.rho, perp


class TestRigidityIdentities:
    def test_nabla_ricci_into_xi(self):
        for data, alpha, k, perp in rigidity_inputs():
            g, ric, n_1 = data.metric.g, data.stack.ricci, data.chart.const(data.dim - 1)
            for w in perp:
                for x in perp:
                    expected = alpha * (n_1 * k * g[w][x] - ric.comp(w, x))
                    assert data.nabla_ricci.comp(w, x, data.xi_index) == expected, (data.name, w, x)

    def test_nabla_riemann_on_xi(self):
        for data, alpha, k, perp in rigidity_inputs():
            g, riemann = data.metric.g, data.stack.riemann13
            for w in perp:
                for x in perp:
                    for y in perp:
                        form = [g[w][y] * ex - g[w][x] * ey for ex, ey in zip(basis(data, x), basis(data, y))]
                        expected = [alpha * (k * f - r) for f, r in zip(form, riemann.comp(x, y, w))]
                        assert list(data.nabla_riemann.comp(w, x, y, data.xi_index)) == expected, (data.name, w, x, y)


class TestSgrPredictions:
    def test_formula_arithmetic_frozen_case(self, desitter3):
        # A = -(n^2/r) B with B = eta on the constant-curvature manifold:
        # r = 6, so A = -(3/2) eta and the opposition residual cancels;
        # the prediction formula gives (4*(3/2) + 11)/(3/2) = 34/3
        chart = desitter3.chart
        eta = desitter3.structure.eta
        b = list(eta)
        a = [chart.const(Fraction(-3, 2)) * e for e in eta]
        forms = RecurrenceForms(tuple(a), tuple(b))
        pred = sgr_predictions(desitter3, forms)
        assert not recurrence_residual(desitter3, "SGR", forms).is_zero
        assert pred.opposition is not None and all(e.is_zero for e in pred.opposition)
        assert pred.r_predicted == chart.const(Fraction(34, 3))
        assert desitter3.stack.scalar == chart.const(6)

    def test_non_lcs_manifold_refused(self, flat3):
        # the prediction formula consumes the structure scalars, which flat
        # space does not carry (alpha = 0)
        with pytest.raises(NotLcsError):
            sgr_predictions(flat3, zero_forms(flat3))

    @pytest.mark.parametrize("n", [3, 4], ids=["milne3", "milne4"])
    def test_zero_scalar_curvature_blocks_opposition(self, n):
        # the flat Milne universe: R = 0 and nabla R = 0, so SGR holds for
        # A = (1, ..., 1, 1/t) with B = 0; r = 0 = 2(n-1)(alpha^2 - rho), and
        # the opposition relation A + (n^2/r) B would divide by r
        data = milne(n)
        forms = milne_forms(data)
        assert recurrence_residual(data, "SGR", forms).is_zero
        pred = sgr_predictions(data, forms)
        assert data.stack.scalar.is_zero and pred.r_predicted.is_zero and pred.r_note == ""
        assert pred.opposition is None
        assert pred.opposition_note == "scalar curvature is zero; the opposition relation divides by it"

    @pytest.mark.parametrize("n", [3, 4], ids=["milne3", "milne4"])
    def test_milne_reaches_the_scalar_prediction(self, n, tmp_path):
        # check SGR's three results on the one kind of input that reaches the
        # scalar prediction: alpha^2 - rho = 0 and R = 0 (see the gate walk)
        data = milne(n)
        forms = milne_forms(data)
        path = tmp_path / "forms.json"
        path.write_text(json.dumps({k: [str(e) for e in getattr(forms, k.lower())] for k in "AB"}), encoding="utf-8")
        report = cli.run("check", data, {"kind": "SGR", "forms": str(path)})
        entries = {e.check_id: e for e in report.entries if not e.check_id.startswith("forms.")}
        assert [(i, e.status) for i, e in entries.items()] == [
            ("recurrence.SGR", "pass"),
            ("predictions.scalar", "pass"),
            ("predictions.opposition", "info"),
        ]
        assert entries["predictions.scalar"].engine == "engine 0, predicted 0"
        assert entries["predictions.opposition"].note == "scalar curvature is zero; the opposition relation divides by it"

    def test_gated_pass_on_trivially_recurrent_space(self, desitter3):
        # nabla R = 0 with A = B = 0 makes the hypothesis hold exactly, but
        # A(xi) = 0 keeps the scalar prediction informational
        pred = sgr_predictions(desitter3, zero_forms(desitter3))
        assert recurrence_residual(desitter3, "SGR", zero_forms(desitter3)).is_zero
        assert pred.r_predicted is None
        assert pred.opposition is not None and all(e.is_zero for e in pred.opposition)

    def test_nonconstant_scalar_blocks_opposition(self, example51):
        pred = sgr_predictions(example51, zero_forms(example51))
        assert not recurrence_residual(example51, "SGR", zero_forms(example51)).is_zero
        assert pred.opposition is None
        assert "constant" in pred.opposition_note

    def test_prediction_is_the_papers_quotient(self):
        # eta is xi lowered, so eta(rho1) = g(g^-1 A, xi) = A(xi) for any A;
        # the paper's {2(n-1)(alpha^2-rho) eta(rho1) - (n^2+2) B(xi)}/A(xi)
        # is then what sgr_predictions evaluates without raising A
        rng = random.Random(11)
        names = ["example51", "lcs4", "lcs5", "desitter3", "desitter4"]
        for data in [builtin(name) for name in names] + list(warped_frames(6, 3)):
            chart, st, n, xi = data.chart, data.structure, data.dim, data.xi_index
            pool = ["0", "1", "-2", "3/2"] + [f"{v}{tail}" for v in chart.coords for tail in ("", " + 1", "^2", "/2")]
            for _ in range(4):
                a, b = (tuple(chart.parse(rng.choice(pool)) for _ in range(n)) for _ in "AB")
                eta_rho1 = st.eta_of(data.metric.raise_form(a))
                assert eta_rho1 == a[xi], data.name
                pred = sgr_predictions(data, RecurrenceForms(a, b))
                if a[xi].is_zero:
                    assert pred.r_predicted is None, data.name
                    continue
                k = st.alpha * st.alpha - st.rho
                paper = (chart.const(2 * (n - 1)) * k * eta_rho1 - chart.const(n * n + 2) * b[xi]) / a[xi]
                assert pred.r_predicted == paper, data.name


class TestXiDerivativeIdentity:
    def test_reference_manifold_passes(self, example51):
        coefficient, residual = nabla_r_xi_identity(example51)
        assert coefficient == example51.chart.parse("4/z^3")
        assert residual.is_zero

    def test_sign_flip_is_detected_and_reported(self, example51):
        # the identity is checked with the beta it is given, and -beta is not
        # the structure's: beta = -2/z^3, so the coefficient 2 alpha rho + beta
        # is 0 where it should be 4/z^3
        flipped = -example51.structure.beta
        coefficient, residual = nabla_r_xi_identity(example51, beta=flipped)
        assert not residual.is_zero
        assert coefficient.is_zero

    # lcsN: alpha = -1/t, rho = -1/t^2 and beta = -2/t^3 at every n, so the
    # coefficient 2 alpha rho - beta is 4/t^3 and -beta's is 0; desitterN has
    # rho = beta = 0, where beta and -beta are the same scalar
    @pytest.mark.parametrize("name", [f"lcs{n}" for n in range(4, 9)] + [f"desitter{n}" for n in range(4, 7)])
    def test_engine_beta_passes_and_flipped_beta_fails_where_nonzero(self, name):
        data = builtin(name)
        chart, beta = data.chart, data.structure.beta
        coefficient, residual = nabla_r_xi_identity(data)
        assert residual.is_zero
        flipped_coefficient, flipped_residual = nabla_r_xi_identity(data, beta=-beta)
        assert flipped_coefficient.is_zero
        if name.startswith("lcs"):
            assert beta == chart.parse("-2/t^3") and coefficient == chart.parse("4/t^3")
            assert not flipped_residual.is_zero
        else:
            assert beta.is_zero and coefficient.is_zero
            assert flipped_residual.is_zero

    def test_desitter_degenerate_coefficient(self, desitter3):
        coefficient, residual = nabla_r_xi_identity(desitter3)
        assert residual.is_zero and coefficient.is_zero

    def test_non_lcs_input_refused(self, flat3):
        with pytest.raises(NotLcsError):
            nabla_r_xi_identity(flat3)


class TestSoliton:
    def test_lambda_values(self, example51):
        chart = example51.chart
        printed, traced = soliton_lambda(chart.parse("-1/z"), chart.zero(), 3)
        assert printed == chart.parse("-4/(3*z)")
        assert traced == chart.parse("-2/(3*z)")

    def test_lambda_zero_alpha(self, example51):
        chart = example51.chart
        p = chart.parse("x + 2")
        printed, traced = soliton_lambda(chart.zero(), p, 3)
        assert printed == traced == p / 2

    def test_k(self, example51):
        chart = example51.chart
        lam, _ = soliton_lambda(chart.parse("-1/z"), chart.zero(), 3)
        assert soliton_k(lam, chart.zero(), chart.parse("-1/z"), 3) == chart.parse("-1/(3*z) - 1/3")

    def test_reference_manifold_is_not_a_soliton(self, example51):
        chart = example51.chart
        st = example51.structure
        lam, _ = soliton_lambda(st.alpha, chart.zero(), 3)
        k = soliton_k(lam, chart.zero(), st.alpha, 3)
        residual, eta_residual = soliton_residual(example51, lam, chart.zero(), k)
        assert not residual.is_zero
        assert eta_residual is not None
        assert not eta_residual.is_zero

    def test_einstein_manifold_balances(self, flat3):
        # S = 0 and L_xi g = 0 (xi = d/dz): the residual vanishes when
        # 2 lambda - (p + 2/3) = 0; flat3 has no alpha, so no k
        chart = flat3.chart
        residual, eta_residual = soliton_residual(flat3, chart.const(Fraction(1, 3)), chart.zero())
        assert residual.is_zero and residual.comps == {}
        assert eta_residual is None

    def test_residual_is_symmetric(self, example51):
        # random lambda and p, xi at every index (dense-style, the permuted
        # example51 frames) and the warped frames; k only where alpha exists
        rng = random.Random(3)
        pool = ["x", "y", "z", "1", "0", "x*z", "1/z"]
        for data in [example51, *warped_frames(3, 2), *xi_at_every_index()]:
            lam, p = (data.chart.parse(rng.choice(pool)) for _ in range(2))
            try:
                k = soliton_k(lam, p, data.structure.alpha, data.dim)
            except NotLcsError:
                k = None
            residual, eta_residual = soliton_residual(data, lam, p, k)
            assert (eta_residual is None) == (k is None), data.name
            for res in (residual, eta_residual):
                assert res is None or all(res.comp(i, j) == res.comp(j, i) for i in range(3) for j in range(3)), data.name

    @pytest.mark.parametrize("name", ["example51", "lcs4", "lcs5", "desitter4"])
    def test_residual_is_twice_the_eta_einstein_residual(self, name):
        # on an (LCS)_n, L_xi g = 2 alpha (g + eta x eta), so with k from
        # soliton_k, L_xi g + 2 S - [2 lambda - (p + 2/n)] g = 2 (S - k g + alpha eta x eta)
        data = builtin(name)
        chart = data.chart
        for lam, p in ((chart.const(3), chart.zero()), (chart.parse(f"1/{chart.coords[-1].name}"), chart.const(2))):
            k = soliton_k(lam, p, data.structure.alpha, data.dim)
            residual, eta_residual = soliton_residual(data, lam, p, k)
            assert residual.comps == {idx: 2 * leaf for idx, leaf in eta_residual.comps.items()}, name
            assert not residual.is_zero

    def test_engine_error_in_structure_propagates(self, monkeypatch):
        # only a missing structure means "no eta-Einstein residual"; a crash is not hidden
        data = make_manifold("fresh", [["z*x", "z*y", "0"], ["0", "z", "0"], ["0", "0", "1"]])

        def crash(*args, **kwargs):
            raise RuntimeError("engine crash")

        monkeypatch.setattr(lcs_structure, "derive_structure", crash)
        zero = data.chart.zero()
        with pytest.raises(RuntimeError, match="engine crash"):
            soliton_residual(data, zero, zero, zero)


class TestDerivedConditions:
    def test_reference_manifold(self, example51):
        out = derived_condition_residuals(example51)
        assert not out.rxm.is_zero and not out.cxs.is_zero
        assert out.mproj_xi_residual.is_zero
        assert out.guard_rxm == example51.chart.parse("2/z^2")
        assert out.guard_cxs == example51.chart.parse("12/z^2 + 1")
        assert out.einstein_from_rxm is None and out.einstein_from_cxs is None

    def test_constant_curvature_gates_fire(self, desitter3):
        out = derived_condition_residuals(desitter3)
        assert out.rxm.is_zero and out.cxs.is_zero
        assert not out.guard_rxm.is_zero and not out.guard_cxs.is_zero
        assert out.einstein_from_rxm.kind == "Einstein"
        assert out.einstein_from_cxs.kind == "Einstein"

    def test_both_gates_share_one_classification(self, monkeypatch):
        # on desitter4 both Einstein gates fire; S is classified once
        calls = []

        def counted(*args):
            calls.append(args)
            return einstein.classify(*args)

        data = builtin("desitter4")
        monkeypatch.setattr(derived_conditions, "classify", counted)
        out = derived_condition_residuals(data)
        assert len(calls) == 1
        assert out.einstein_from_rxm == out.einstein_from_cxs
        assert out.einstein_from_rxm.kind == "Einstein"

    def test_non_lcs_refused(self, flat3):
        with pytest.raises(NotLcsError):
            derived_condition_residuals(flat3)


# Every gated consequence, each reported through cli.add_gated, with the runs
# on which it is asserted (pass or fail) and the status there.  A run is
# ("check", input, forms) for `check SGR --forms`, with A = B = 0 ("zero")
# or the forms `fit SGR` returns ("fitted"), or ("derived-conditions",
# input, None).  Every run listed is trivial: constant curvature and zero
# forms.
GATE_BUILTINS = ["example51", "flat3"] + [f"lcs{n}" for n in range(3, 7)] + [f"desitter{n}" for n in range(3, 6)]
DESITTER = [f"desitter{n}" for n in range(3, 6)]
MILNE = {"milne3": 3, "milne4": 4}
GATES = {
    # the prediction divides by A(xi), which is zero in every SGR solution
    # fit finds; of these inputs the forms A = 1, B = 0 satisfy SGR only on
    # the flat ones, and there r = 0 = 2(n-1)(alpha^2 - rho) needs
    # alpha^2 - rho = 0: the Milne universe, not flat3 (alpha = 0)
    "predictions.scalar": {("check", name, "ones"): "pass" for name in MILNE},
    # A + (n^2/r) B needs a nonzero constant r; the fitted forms are zero too
    "predictions.opposition": {("check", name, forms): "pass" for name in DESITTER for forms in ("zero", "fitted")},
    # its guard alpha^2 - rho is zero on Milne
    "einstein.rxm": {("derived-conditions", name, None): "pass" for name in DESITTER},
    "einstein.cxs": {("derived-conditions", name, None): "pass" for name in [*DESITTER, *MILNE]},
}


def constant_curvature(data):
    """R(X,Y)Z = K(g(Y,Z)X - g(X,Z)Y) with K = r/(n(n-1)) a constant."""
    n, g, riemann = data.dim, data.metric.g, data.stack.riemann13
    curvature = data.stack.scalar / data.chart.const(n * (n - 1))
    return curvature.is_constant and all(
        list(riemann.comp(x, y, z)) == [curvature * (g[y][z] * ex - g[x][z] * ey) for ex, ey in zip(basis(data, x), basis(data, y))]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


class TestGateReachability:
    def test_every_gate_goes_through_the_routine_and_is_reached_only_trivially(self, monkeypatch, tmp_path):
        add_gated, added = cli.add_gated, []

        def recording(report, *args):
            add_gated(report, *args)
            added.append(report.entries[-1])

        monkeypatch.setattr(cli, "add_gated", recording)
        reached = {}
        inputs = [(name, builtin(name)) for name in GATE_BUILTINS] + [(name, milne(n)) for name, n in MILNE.items()]
        for name, data in inputs:
            ones = RecurrenceForms((data.chart.one(),) * data.dim, zero_forms(data).b)
            runs = [("check", "zero", zero_forms(data)), ("check", "ones", ones)]
            fitted = recurrence_fit(data, "SGR")
            if isinstance(fitted, RecurrenceForms):
                runs.append(("check", "fitted", fitted))
            runs.append(("derived-conditions", None, None))
            for command, label, forms in runs:
                options = {}
                if forms is not None:
                    path = tmp_path / f"{name}-{label}.json"
                    path.write_text(json.dumps({k: [str(e) for e in getattr(forms, k.lower())] for k in "AB"}), encoding="utf-8")
                    options = {"kind": "SGR", "forms": str(path)}
                added.clear()
                report = cli.run(command, data, options)
                # an entry of a listed gate that bypasses the routine is not among those it added
                assert [e for e in report.entries if e.check_id in GATES] == added, (command, name, label)
                for entry in added:
                    runs_reaching = reached.setdefault(entry.check_id, {})
                    if entry.status != "info":
                        runs_reaching[(command, name, label)] = entry.status
                        assert constant_curvature(data), (entry.check_id, name)
                        # nonzero forms reach a gate only where R = 0
                        assert forms is None or all(e.is_zero for e in forms.a + forms.b) or data.stack.riemann13.is_zero, name
        assert reached == GATES


class TestFormulasAtHigherDimension:
    """Coefficients with an n in them, pinned at n = 4 and 5.

    At n = 3 several different constants coincide (n(n-1) = 2n = 6,
    n^2+2 = 3n+2 = 11, 2(n-1) = n+1 = 4), so only n != 3 tells them apart.
    On lcsN, alpha = -1/t and rho = -1/t^2 at every n, so alpha^2 - rho = 2/t^2.
    On desitterN, alpha = -1, rho = 0 and r = n(n-1).
    """

    @pytest.mark.parametrize("n, guard", [(4, "(t^2 + 24)/t^2"), (5, "(t^2 + 40)/t^2")], ids=["lcs4", "lcs5"])
    def test_derived_conditions_guard(self, n, guard):
        # guard_cxs = n(n-1)(alpha^2 - rho) + 1 = n(n-1) * 2/t^2 + 1
        data = builtin(f"lcs{n}")
        chart = data.chart
        assert data.structure.alpha == chart.parse("-1/t")
        assert data.structure.rho == chart.parse("-1/t^2")
        out = derived_condition_residuals(data)
        assert out.guard_rxm == chart.parse("2/t^2")
        assert out.guard_cxs == chart.parse(guard)

    @pytest.mark.parametrize(
        "n, printed, traced, k",
        [(4, "-5/(4*t)", "-3/(4*t)", "-1/(4*t) - 1/4"), (5, "-6/(5*t)", "-4/(5*t)", "-1/(5*t) - 1/5")],
        ids=["lcs4", "lcs5"],
    )
    def test_soliton_lambda_and_k(self, n, printed, traced, k):
        # printed p/2 + ((n+1)/n) alpha, traced p/2 + ((n-1)/n) alpha, and
        # k = lambda - (p/2 + 1/n) - alpha, all at p = 0 and alpha = -1/t
        chart = builtin(f"lcs{n}").chart
        alpha = chart.parse("-1/t")
        lam, lam_traced = soliton_lambda(alpha, chart.zero(), n)
        assert lam == chart.parse(printed)
        assert lam_traced == chart.parse(traced)
        assert soliton_k(lam, chart.zero(), alpha, n) == chart.parse(k)

    @pytest.mark.parametrize("n", [4, 5], ids=["lcs4", "lcs5"])
    def test_sgrr_b_term_is_n_b_g(self, n):
        # residual = nabla S - A x S - n B x g, so switching B on changes
        # every entry by exactly -n b_w g_ij
        data = builtin(f"lcs{n}")
        chart = data.chart
        b = [chart.parse(f"x1 + {w + 1}") for w in range(n)]
        zero = [chart.zero()] * n
        with_b = recurrence_residual(data, "SGRR", RecurrenceForms(tuple(zero), tuple(b)))
        without = recurrence_residual(data, "SGRR", zero_forms(data))
        g = data.metric.g
        for w in range(n):
            for i in range(n):
                for j in range(n):
                    expected = chart.const(-n) * b[w] * g[i][j]
                    assert with_b.comp(w, i, j) - without.comp(w, i, j) == expected

    @pytest.mark.parametrize("n, r_predicted", [(4, Fraction(39, 2)), (5, Fraction(148, 5))], ids=["desitter4", "desitter5"])
    def test_sgr_predictions(self, n, r_predicted):
        # B = eta, A = -(n^2/r) eta = -(n/(n-1)) eta, so A(xi) = eta(rho1) = -n/(n-1)
        # and B(xi) = 1; then r = {2(n-1) * 1 * A(xi) - (n^2+2)} / A(xi)
        # = (n^2 + 2n + 2)(n-1)/n, and the opposition A + (n^2/r) B vanishes
        data = builtin(f"desitter{n}")
        chart = data.chart
        st = data.structure
        assert st.alpha == chart.const(-1) and st.rho.is_zero
        eta = st.eta
        a = [chart.const(Fraction(-n, n - 1)) * e for e in eta]
        pred = sgr_predictions(data, RecurrenceForms(tuple(a), eta))
        assert data.stack.scalar == chart.const(n * (n - 1))
        assert pred.r_predicted == chart.const(r_predicted)
        assert pred.opposition is not None and all(e.is_zero for e in pred.opposition)
