"""Frame tensors are evaluated only on their support, with the same
arithmetic in the same order as at every index.

Each input runs ``curvature``, ``derived-conditions``, ``check-lcs``,
``fit SGR``, ``fit SGRR``, ``check SGR|SGRR|SGPR`` (with the 1-forms
A(E_i) = x_i, B(E_i) = i) and ``soliton`` in-process twice: as shipped,
and as a reference in which ``FrameTensor.build`` ignores its support
and every derivation (nabla S, nabla R, nabla phi, R(xi,X).M, C(xi,X).S
and L_xi g) is the gather formula of ``conftest``, each component one
``vec_sum`` as in the shipped ``levi_civita.derivation``.  For a (1,3)
input the reference takes the shipped half rule: it returns the zero leaf without
arithmetic at x >= y and then fills the mirror, so both runs do the same
work off the support.  M and C take the same half rule in both runs: the
reference evaluates their formulas at every x < y, returns the zero leaf
without arithmetic at x >= y, and fills the mirror.  For a nabla R kept
to part of its leaves (the self-checks' Bianchi support, the derived
conditions' xi-slice) it returns the zero leaf also where the shipped
walk's ``keep`` fails (``test_levi_civita`` checks the half rule against
the formula at every index).  Both runs must give the same reports,
the same stored leaves in the same key order, and the same number of Expr
constructions and polynomial kernel calls, counted by the benchmark's trace
wrappers.  Leaving out the work on zeros may change nothing else.  The
memos of Expr operations and polynomial GCDs are emptied whenever a
manifold is built, and work on zeros never reaches them, so they act alike
in both runs.
"""

import importlib
import itertools
import json
from functools import partial
from pathlib import Path

import pytest

from lcslab import _poly_py, cli, curvature, derived_conditions, levi_civita, polyops, symexpr
from lcslab.frame_geometry import FrameTensor, mirror_pairs, residual

from conftest import AD_HOC, ad_hoc, builtin, gather_cov_deriv_tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
COMMANDS = (
    ("curvature", {}),
    ("derived-conditions", {}),
    ("check-lcs", {}),
    ("fit", {"kind": "SGR"}),
    ("fit", {"kind": "SGRR"}),
    ("check", {"kind": "SGR"}),
    ("check", {"kind": "SGRR"}),
    ("check", {"kind": "SGPR"}),
    ("soliton", {}),
)
INPUTS = {
    "lcs5": lambda: cli.build_manifold(cli.load("lcs5")),
    "dense-style": lambda: ad_hoc("dense-style"),
    "bracket-only": lambda: ad_hoc("bracket-only"),
}


def reference_derivation(tensor, ops, fields=None, keep=None):
    """The gather formula under the shipped half rule: a (1,3) input gets the
    zero leaf, without arithmetic, at x >= y (and where ``keep`` fails), and
    (w,y,x,z) is then filled as the negation of (w,x,y,z)."""
    if tensor.valence != (1, 3):
        return gather_cov_deriv_tensor(tensor, ops, fields)
    half = gather_cov_deriv_tensor(
        tensor, ops, fields, where=lambda w, x, y, z: x < y and (keep is None or keep(w, x, y))
    )
    mirror = {(w, y, x, z): tuple(-e for e in leaf) for (w, x, y, z), leaf in half.comps.items()}
    return half._replace(comps=dict(sorted({**half.comps, **mirror}.items())))


def reference_antisymmetric(zero, n, entry, support):
    """M or C under the shipped half rule, its support ignored: the formula at
    every x < y, the zero leaf without arithmetic at x >= y, and (y,x,z) then
    filled as the negation of (x,y,z)."""
    upper = FrameTensor.build((1, 3), n, lambda x, y, z: entry(x, y, z) if x < y else zero)
    return mirror_pairs(upper, 0)


def write_forms(path: Path, data) -> str:
    """A forms file with A(E_i) = x_i and B(E_i) = i for the chart of ``data``."""
    coords = [v.name for v in data.chart.coords]
    path.write_text(json.dumps({"A": coords, "B": [str(i + 1) for i in range(len(coords))]}), encoding="utf-8")
    return str(path)


def traced_run(monkeypatch, load, forms: str, reference: bool):
    """Reports, every built tensor's (valence, leaves, zero), the counts of
    Expr constructions and kernel calls, and the number of leaves evaluated."""
    layers = importlib.import_module("layers")
    build = FrameTensor.build
    built = []
    evaluated = [0]

    def recording_build(cls, valence, n, fn, support=None):
        def counted(*idx):
            evaluated[0] += 1
            return fn(*idx)

        t = build(valence, n, counted, None if reference else support)
        built.append((t.valence, list(t.comps.items()), t.zero))
        return t

    counters = layers.Counters(layers.Spans())
    patches = layers.Patches()
    with monkeypatch.context() as m:
        m.setattr(FrameTensor, "build", classmethod(recording_build))
        if reference:
            for module in (levi_civita, derived_conditions):
                m.setattr(module, "derivation", reference_derivation)
        layers._install_counters(counters, patches, symexpr, polyops, _poly_py)
        try:
            data = load()
            if reference:  # the chart's zero is interned before the counted runs
                m.setattr(curvature, "_antisymmetric", partial(reference_antisymmetric, (data.chart.zero(),) * data.dim))
            reports = [cli.run(command, data, {**options, "forms": forms}).to_json() for command, options in COMMANDS]
        finally:
            patches.undo()
    return reports, built, counters.expr_new, dict(counters.calls), evaluated[0]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_support_keeps_reports_leaves_and_kernel_calls(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # interns the chart's zero outside the counted runs
    forms = write_forms(tmp_path / "forms.json", INPUTS[name]())
    reports, built, expr_new, calls, evaluated = traced_run(monkeypatch, INPUTS[name], forms, reference=False)
    ref_reports, ref_built, ref_expr_new, ref_calls, ref_evaluated = traced_run(monkeypatch, INPUTS[name], forms, reference=True)
    assert reports == ref_reports
    assert len(built) == len(ref_built)
    for ours, theirs in zip(built, ref_built):
        assert ours == theirs  # equal leaves, in equal key order
    assert expr_new == ref_expr_new
    assert calls == ref_calls and calls["poly_gcd"] > 0 and calls["poly_mul"] > 0
    assert evaluated < ref_evaluated


def counted_curvature(name):
    """The Expr constructions and kernel calls of building AD_HOC[name] and
    running ``curvature`` on it."""
    layers = importlib.import_module("layers")
    counters = layers.Counters(layers.Spans())
    patches = layers.Patches()
    layers._install_counters(counters, patches, symexpr, polyops, _poly_py)
    try:
        cli.run("curvature", ad_hoc(name), {}).to_json()
    finally:
        patches.undo()
    return counters.expr_new, dict(counters.calls)


def test_counts_do_not_depend_on_what_ran_before(monkeypatch):
    # both memos start empty for each manifold: neither another manifold
    # nor the same one run before may change a run's arithmetic
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ad_hoc("dense-style")  # interns the chart's zero outside the counted runs
    first = counted_curvature("dense-style")
    for before in ("off-diagonal", "dense-style"):
        cli.run("curvature", ad_hoc(before), {})
        assert counted_curvature("dense-style") == first
    assert first[1]["poly_gcd"] > 0


@pytest.mark.parametrize("name", ["example51", "lcs4", "dense-style"])
def test_residual_stores_the_leaves_of_the_all_index_build(name):
    # lhs - u p - v q on its support against the same relation evaluated at
    # every index, for u and v each zero and nonzero: scalar leaves with
    # (nabla_1 S, S, g) and vector leaves with (nabla_1 R, R, g(E_y,E_z) E_x)
    data = ad_hoc(name) if name in AD_HOC else builtin(name)
    n, chart, g = data.dim, data.chart, data.metric.g
    cases = (
        (
            FrameTensor.build((0, 2), n, lambda i, j: data.nabla_ricci.comp(0, i, j)),
            data.stack.ricci,
            FrameTensor.build((0, 2), n, lambda i, j: g[i][j]),
        ),
        (
            FrameTensor.build((1, 3), n, lambda x, y, z: data.nabla_riemann.comp(0, x, y, z)),
            data.stack.riemann13,
            FrameTensor.build((1, 3), n, lambda x, y, z: tuple(g[y][z] if c == x else chart.zero() for c in range(n))),
        ),
    )
    nonzero_u = chart.parse(f"{chart.coords[0].name} + 1")
    for lhs, p, q in cases:
        assert not (lhs.is_zero or p.is_zero or q.is_zero)
        for u, v in itertools.product((chart.zero(), nonzero_u), (chart.zero(), chart.const(3))):
            if lhs.valence[0]:

                def leaf(*idx):
                    return tuple(a - u * b - v * c for a, b, c in zip(lhs.comp(*idx), p.comp(*idx), q.comp(*idx)))

            else:

                def leaf(*idx):
                    return lhs.comp(*idx) - u * p.comp(*idx) - v * q.comp(*idx)

            ours, theirs = residual(lhs, p, q, u, v), FrameTensor.build(lhs.valence, n, leaf)
            assert list(ours.comps.items()) == list(theirs.comps.items()), (name, lhs.valence, u, v)
            assert ours == theirs
