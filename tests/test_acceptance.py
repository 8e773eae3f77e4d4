"""Acceptance suite: one test per criterion, one line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (or add ``-s`` to see the
explicit ACCEPTANCE lines as they print).
"""

import functools
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab.cli import build_manifold, load
from lcslab.cli import run as cli_run
from lcslab.axioms import verify_axioms
from lcslab.conditions import NoSolution, RecurrenceForms, recurrence_fit, recurrence_residual
from lcslab.derived_conditions import derived_condition_residuals, nabla_r_xi_identity
from lcslab.lcs_structure import NotLcsError
from lcslab.soliton import soliton_k, soliton_lambda, soliton_residual

from conftest import AD_HOC, SRC, ad_hoc, builtin, lie_xi, make_manifold
from numeric_oracle import NumericTwin


def ok(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_reference_brackets():
    t0 = time.perf_counter()
    data = build_manifold(load("example51"))  # not the cached fixture: the timing covers the brackets
    chart = data.chart
    expected = {
        (0, 1): ("0", "-z", "0"),
        (0, 2): ("-1/z", "0", "0"),
        (1, 2): ("0", "-1/z", "0"),
    }
    for (i, j), texts in expected.items():
        assert data.brackets[i][j] == tuple(chart.parse(t) for t in texts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"bracket computation took {elapsed:.3f}s"
    ok(1, "reference brackets, exact, under one second")


def test_criterion_02_connection_table():
    data = builtin("example51")
    chart = data.chart
    expected = {
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
    for (i, j), texts in expected.items():
        assert data.connection.gamma[i][j] == tuple(chart.parse(t) for t in texts), (i, j)
    ok(2, "all nine connection entries exact")


def test_criterion_03_curvature_components_and_identities():
    data = builtin("example51")
    chart = data.chart
    expected = {
        (1, 2, 2): ("0", "-2/z^2", "0"),
        (0, 2, 2): ("-2/z^2", "0", "0"),
        (0, 1, 1): ("1/z^2 - z^2", "0", "0"),
        (1, 2, 1): ("0", "0", "-2/z^2"),
        (0, 1, 0): ("0", "z^2 - 1/z^2", "0"),
        (0, 2, 0): ("0", "0", "-2/z^2"),
    }
    for (i, j, k), texts in expected.items():
        assert data.stack.riemann13.comp(i, j, k) == tuple(chart.parse(t) for t in texts), (i, j, k)
    checks = dict(data.stack.self_check(data.metric, data.connection))
    for name in (
        "antisymmetry-first-pair",
        "antisymmetry-second-pair",
        "pair-symmetry",
        "first-bianchi",
        "second-bianchi",
    ):
        assert checks[name], name
    ok(3, "six published curvature components plus symmetries and both Bianchi identities")


def test_criterion_04_ricci_anchor_and_flagged_mismatches():
    data = builtin("example51")
    chart = data.chart
    st_ = data.structure
    assert data.stack.ricci.comp(2, 2) == chart.parse("-4/z^2")

    # S(X, xi) = (n-1)(alpha^2 - rho) eta(X) with factor 4/z^2, componentwise
    factor = chart.const(2) * (st_.alpha * st_.alpha - st_.rho)
    assert factor == chart.parse("4/z^2")
    for i in range(3):
        lhs = sum((st_.xi[a] * data.stack.ricci.comp(i, a) for a in range(3)), chart.zero())
        assert lhs == factor * st_.eta[i]

    # independent oracle 1: contract the engine's own curvature by hand
    ginv = data.metric.inverse()
    total = chart.zero()
    for a in range(3):
        for b in range(3):
            paired = chart.zero()
            for u in range(3):
                paired = paired + data.stack.riemann13.comp(a, 0, 0)[u] * data.metric.g[u][b]
            total = total + ginv[a][b] * paired
    assert total == data.stack.ricci.comp(0, 0)
    # independent oracle 2: exact rational value at x=1, y=1, z=2
    assert data.stack.ricci.comp(0, 0).eval({"x": 1, "y": 1, "z": 2}) == Fraction(-13, 4)

    report = cli_run("conformance", data, {})
    by_id = {e.check_id: e for e in report.entries}
    for cid in ("ricci.11", "ricci.22"):
        entry = by_id[cid]
        assert entry.status == "mismatch"
        assert entry.published == "-(z^2 + 1/z^2)"
        assert entry.engine == str(chart.parse("3/z^2 - z^2"))
    assert by_id["ricci.33"].status == "pass"
    ok(4, "Ricci anchor exact, xi relation holds, published diagonal flagged as mismatch")


def test_criterion_05_axiom_suite_and_connection_residuals():
    data = builtin("example51")
    st_ = data.structure
    assert st_.alpha == data.chart.parse("-1/z")
    assert st_.rho == data.chart.parse("-1/z^2")
    checks = verify_axioms(data, st_)
    assert [c.axiom for c in checks if c.detail] == []

    n = data.dim
    for i in range(n):
        for j in range(n):
            torsion = tuple(
                a - b - c
                for a, b, c in zip(data.connection.gamma[i][j], data.connection.gamma[j][i], data.brackets[i][j])
            )
            assert all(e.is_zero for e in torsion)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                lhs = data.frame.fields[k].apply(data.metric.g[i][j])
                rhs = data.metric.pair(data.connection.gamma[k][i], data.frame.unit(j)) + data.metric.pair(
                    data.frame.unit(i), data.connection.gamma[k][j]
                )
                assert (lhs - rhs).is_zero
    ok(5, "all structure axioms pass; torsion and compatibility residuals identically zero")


def test_criterion_06_xi_derivative_identity():
    data = builtin("example51")
    coefficient, residual = nabla_r_xi_identity(data)
    assert residual.is_zero
    assert coefficient == 2 * data.structure.alpha * data.structure.rho - data.structure.beta
    assert coefficient == data.chart.parse("4/z^3")
    ok(6, "xi-direction derivative identity passes with coefficient 4/z^3")


def test_criterion_07_lie_derivative_shape():
    data = builtin("example51")
    st_ = data.structure
    lie = lie_xi(data)
    for i in range(3):
        for j in range(3):
            expected = 2 * st_.alpha * (data.metric.g[i][j] + st_.eta[i] * st_.eta[j])
            assert (lie.comp(i, j) - expected).is_zero
    ok(7, "L_xi g equals 2 alpha (g + eta x eta) exactly")


def test_criterion_08_m_projective_xi_identity():
    data = builtin("example51")
    st_ = data.structure
    for i in range(3):
        for j in range(3):
            vec = None
            for a in range(3):
                term = tuple(st_.xi[a] * c for c in data.m_projective.comp(i, j, a))
                vec = term if vec is None else tuple(p + q for p, q in zip(vec, term))
            assert st_.eta_of(vec).is_zero, (i, j)
    ok(8, "eta(M(X,Y)xi) vanishes for all nine frame pairs")


def test_criterion_09_constant_curvature_oracle():
    ds = builtin("desitter3")
    assert ds.concircular.is_zero
    assert ds.m_projective.is_zero
    ex = builtin("example51")
    assert not ex.concircular.is_zero
    ok(9, "constant-curvature frame annihilates C and M; reference manifold does not")


def corpus():
    rng = random.Random(31)
    pool = ["1", "z", "x + 1", "y", "2", "x*z"]
    manifolds = [builtin("example51"), builtin("flat3"), builtin("desitter3")]
    for trial in range(3):
        rows = [
            [rng.choice(pool), rng.choice(pool), rng.choice(pool)],
            ["0", rng.choice(["1", "z", "x + 1"]), rng.choice(pool)],
            ["0", "0", rng.choice(["1", "z", "2"])],
        ]
        manifolds.append(make_manifold(f"acceptance-corpus{trial}", rows))
    return manifolds


def test_criterion_10_fitter_roundtrip_over_corpus():
    for data in corpus():
        result = recurrence_fit(data, "SGRR")
        assert isinstance(result, (RecurrenceForms, NoSolution)), data.name
        if isinstance(result, RecurrenceForms):
            assert recurrence_residual(data, "SGRR", result).is_zero, data.name
    ok(10, "fit returns exactly-verified forms or NoSolution on the whole corpus")


diag_entries = st.sampled_from(["1", "z", "x + 1", "2"])
upper_entries = st.sampled_from(["0", "1", "z", "y", "x*z", "2"])


@given(st.tuples(diag_entries, diag_entries, diag_entries), st.tuples(upper_entries, upper_entries, upper_entries))
@settings(max_examples=10, deadline=None)
def test_criterion_10b_fitter_roundtrip_property(diag, upper):
    rows = [
        [diag[0], upper[0], upper[1]],
        ["0", diag[1], upper[2]],
        ["0", "0", diag[2]],
    ]
    data = make_manifold("hypothesis-case", rows)
    result = recurrence_fit(data, "SGRR")
    assert isinstance(result, (RecurrenceForms, NoSolution))
    if isinstance(result, RecurrenceForms):
        assert recurrence_residual(data, "SGRR", result).is_zero


def test_criterion_11_soliton_scalar_and_residual():
    data = builtin("example51")
    chart = data.chart
    printed, traced = soliton_lambda(chart.parse("-1/z"), chart.zero(), 3)
    assert printed == chart.parse("-4/(3*z)")
    assert traced == chart.parse("-2/(3*z)")

    report = cli_run("soliton", data, {"p": "0", "lam": None})
    text = report.to_text()
    assert "-4/(3*z)" in text and "-2/(3*z)" in text

    k = soliton_k(printed, chart.zero(), data.structure.alpha, 3)
    residual, _ = soliton_residual(data, printed, chart.zero(), k)
    assert not residual.is_zero
    ok(11, "both soliton scalars reported; the soliton residual is nonzero")


def random_points(count=3):
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        pt = {
            "x": Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            "y": Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            "z": Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        }
        if pt not in out:
            out.append(pt)
    return out


def cross_check(data, pt) -> bool:
    """Assert every engine tensor, nabla S and nabla R included, against the
    numeric twin at pt; False when pt is a pole of the frame data."""
    n = data.dim
    try:
        twin = NumericTwin(data, pt)
        cb = twin.brackets_frame()
        gam = twin.gamma()
        riem = twin.riemann()
        ric = twin.ricci(riem)
        scal = twin.scalar(ric)
        q = twin.q_operator(ric)
        mproj = twin.m_projective(riem, ric, q)
        conc = twin.concircular(riem, scal)
        lie = twin.lie_metric(data.xi_index)
        nabla_s = twin.nabla_ricci(gam, ric)
        nabla_r = twin.nabla_riemann(gam, riem)
    except ZeroDivisionError:
        return False
    engine_lie = lie_xi(data)
    for i in range(n):
        for j in range(n):
            assert [twin.ev(c) for c in data.brackets[i][j]] == cb[i][j]
            assert [twin.ev(c) for c in data.connection.gamma[i][j]] == gam[i][j]
            assert twin.ev(data.stack.ricci.comp(i, j)) == ric[i][j]
            assert [twin.ev(c) for c in data.stack.q_operator.comp(i)] == q[i]
            assert twin.ev(engine_lie.comp(i, j)) == lie[i][j]
            for k in range(n):
                assert [twin.ev(c) for c in data.stack.riemann13.comp(i, j, k)] == riem[i][j][k]
                assert [twin.ev(c) for c in data.m_projective.comp(i, j, k)] == mproj[i][j][k]
                assert [twin.ev(c) for c in data.concircular.comp(i, j, k)] == conc[i][j][k]
                assert twin.ev(data.nabla_ricci.comp(i, j, k)) == nabla_s[i][j][k]
                for l in range(n):
                    assert [twin.ev(c) for c in data.nabla_riemann.comp(i, j, k, l)] == nabla_r[i][j][k][l]
    assert twin.ev(data.stack.scalar) == scal
    return True


def test_criterion_12_numeric_cross_check():
    data = builtin("example51")
    assert sum(cross_check(data, pt) for pt in random_points()) == 3
    ok(12, "symbolic tensors match the numeric twin at three rational points")


# rational points where each input's frame data has no pole
POINTS = {
    "example51": {"x": Fraction(3, 2), "y": Fraction(5, 3), "z": Fraction(7, 4)},
    "lcs4": {"x1": Fraction(3, 2), "x2": Fraction(5, 3), "x3": Fraction(2), "t": Fraction(7, 4)},
    "lcs5": {"x1": Fraction(3, 2), "x2": Fraction(5, 3), "x3": Fraction(2), "x4": Fraction(5, 2), "t": Fraction(7, 4)},
    "lcs6": {**{f"x{i}": Fraction(i + 2, i) for i in range(1, 6)}, "t": Fraction(7, 4)},
    "desitter5": {"x1": Fraction(3, 2), "x2": Fraction(5, 3), "x3": Fraction(2), "x4": Fraction(5, 2), "t": Fraction(7, 4)},
    "dense-style": {"x": Fraction(3, 2), "y": Fraction(5, 3), "z": Fraction(7, 4)},
    "off-diagonal": {"x": Fraction(3, 2), "y": Fraction(5, 3), "z": Fraction(7, 4)},
    "bracket-only": {"x": Fraction(3, 2), "y": Fraction(5, 3), "z": Fraction(7, 4), "t": Fraction(2)},
}


def point_input(name):
    return ad_hoc(name) if name in AD_HOC else builtin(name)


@pytest.mark.parametrize("name", ["lcs4", "lcs5", "lcs6"])
def test_numeric_cross_check_lcs_n(name):
    # n > 3 separates the n-dependent constants that coincide at n = 3.
    assert cross_check(builtin(name), POINTS[name])


# every nabla R leaf of desitter5 is zero, so its support is empty
@pytest.mark.parametrize("name", ["desitter5", *AD_HOC])
def test_numeric_cross_check_support_branches(name):
    # tensors are evaluated only on their support: a branch missing from a
    # support drops nonzero leaves, which the twin sees
    assert cross_check(point_input(name), POINTS[name])


@pytest.mark.parametrize("name", ["example51", "lcs4", "desitter5", *AD_HOC])
def test_recurrence_residuals_match_the_twin(name):
    # fixed nonzero forms: A(E_i) = (i+1) c - 1 and B(E_i) = c' + i - 1/2 in
    # the first and last coordinates c, c'; SGPR needs a structure
    data = point_input(name)
    n = data.dim
    pt = POINTS[name]
    first, last = data.chart.coords[0].name, data.chart.coords[-1].name
    a = [data.chart.parse(f"{i + 1}*{first} - 1") for i in range(n)]
    b = [data.chart.parse(f"{last} + {i} - 1/2") for i in range(n)]
    forms = RecurrenceForms(tuple(a), tuple(b))
    twin = NumericTwin(data, pt)
    gam = twin.gamma()
    riem = twin.riemann()
    ric = twin.ricci(riem)
    nabla_r = twin.nabla_riemann(gam, riem)
    a_pt, b_pt = [twin.ev(e) for e in a], [twin.ev(e) for e in b]
    expected = {
        "SGR": twin.sgr_residual(riem, nabla_r, a_pt, b_pt),
        "SGRR": twin.sgrr_residual(ric, twin.nabla_ricci(gam, ric), a_pt, b_pt),
    }
    try:
        data.structure
    except NotLcsError:
        assert name in AD_HOC
    else:
        expected["SGPR"] = twin.sgr_residual(riem, nabla_r, a_pt, b_pt, twin.phi())
    for kind, table in expected.items():
        residual = recurrence_residual(data, kind, forms)
        assert not residual.is_zero
        for idx in itertools.product(range(n), repeat=residual.valence[1]):
            leaf = residual.comp(*idx)
            want = functools.reduce(list.__getitem__, idx, table)
            assert ([twin.ev(e) for e in leaf] if residual.valence[0] else twin.ev(leaf)) == want, (kind, idx)


@pytest.mark.parametrize("name", ["example51", "lcs4", "desitter5"])
def test_xi_identity_residual_matches_the_twin(name):
    # the identity reads nabla R at (w, a, y, z) for every a, both halves of
    # the half rule; the AD_HOC inputs carry no structure.  The data's own
    # beta gives a zero residual, beta shifted by the last coordinate a
    # nonzero one
    data = point_input(name)
    n = data.dim
    st_ = data.structure
    twin = NumericTwin(data, POINTS[name])
    nabla_r = twin.nabla_riemann(twin.gamma(), twin.riemann())
    shifted = st_.beta + data.chart.parse(data.chart.coords[-1].name)
    for beta, passed in ((None, True), (shifted, False)):
        _, residual = nabla_r_xi_identity(data, beta)
        assert residual.is_zero == passed
        used = st_.beta if beta is None else beta
        coeff = 2 * twin.ev(st_.alpha) * twin.ev(st_.rho) - twin.ev(used)
        table = twin.xi_identity_residual(nabla_r, coeff)
        for w, y, z in itertools.product(range(n), repeat=3):
            assert twin.ev(residual.comp(w, y, z)) == table[w][y][z], (beta, w, y, z)
        assert any(v != 0 for plane in table for row in plane for v in row) == (not passed)


@pytest.mark.parametrize("name", ["example51", "lcs4", "desitter5"])
def test_derived_condition_tensors_match_the_twin(name):
    # R(xi,X).M and C(xi,X).S at every index, written out from the twin's own
    # R, M, C, S and g; the AD_HOC inputs carry no structure
    data = point_input(name)
    n = data.dim
    twin = NumericTwin(data, POINTS[name])
    riem = twin.riemann()
    ric = twin.ricci(riem)
    mproj = twin.m_projective(riem, ric, twin.q_operator(ric))
    conc = twin.concircular(riem, twin.scalar(ric))
    out = derived_condition_residuals(data)
    for tensor, table in ((out.rxm, twin.r_xi_dot_m(riem, mproj)), (out.cxs, twin.c_xi_dot_s(conc, ric))):
        for idx in itertools.product(range(n), repeat=tensor.valence[1]):
            assert twin.ev(tensor.comp(*idx)) == functools.reduce(list.__getitem__, idx, table), idx


def test_criterion_13_deterministic_json_report():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "lcslab.cli", "conformance", "--json"],
            capture_output=True,
            cwd=SRC,  # `-m` imports from the working directory, so the child runs this lcslab
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["summary"]["fail"] == 0
    ok(13, "conformance --json is byte-identical across runs")
