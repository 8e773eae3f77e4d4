"""The names the benchmark's in-process trace patches must exist and be
restorable: a refactor that renames one fails here, not only under
``perfbench/run.py --trace 1``."""

import importlib
import json
import random
from pathlib import Path

import pytest

from lcslab import _poly_py, cli, conditions, curvature, lcs_structure, manifold, polyops, symexpr

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# ManifoldData stages a `curvature` report computes; brackets via connection.
# Its self-checks derive nabla R on the Bianchi support inside
# check.self_check, so the full nabla R stage is not among them.
CURVATURE_STAGES = ("brackets", "connection", "stack", "m_projective", "concircular")


# modules the engine loads on first use, through a loader that stays in the
# module a tracer patches (polyops._heu_gcd, polyops._gcd_rec,
# CurvatureStack.self_check); the benchmark's untraced rounds load them before
# any wrapper goes in, so each must call the kernels through polyops
LAZY_ENGINE_MODULES = ("_heugcd", "_subresultant", "self_checks")


def test_trace_hooks_patch_live_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for module in LAZY_ENGINE_MODULES:
        importlib.import_module(f"lcslab.{module}")
    counters = layers.Counters(layers.Spans())
    patches = layers.Patches()
    layers._install_spans(counters.spans, patches, (cli, manifold, curvature, conditions, lcs_structure))
    layers._install_counters(counters, patches, symexpr, polyops, _poly_py)
    saved = list(patches._saved)
    try:
        data = cli.build_manifold(cli.load("example51"))
        report = cli.run("curvature", data, {})
        report.to_json()
    finally:
        patches.undo()

    assert len(saved) == 29
    assert len({(id(owner), attr) for owner, attr, _ in saved}) == len(saved)
    assert all(vars(owner)[attr] is old for owner, attr, old in saved)

    assert report.exit_code == 0
    names = {record[0] for record in counters.spans.records}
    assert set(CURVATURE_STAGES) <= set(layers.STAGES)
    assert {f"stage.{s}" for s in CURVATURE_STAGES} | {"check.self_check", "cli.report"} <= names
    assert "stage.nabla_riemann" not in names
    assert counters.expr_new > 0 and counters.calls["poly_gcd"] > 0 and counters.calls["poly_mul"] > 0


def test_kernel_calls_of_lazily_loaded_gcd_modules_are_counted(monkeypatch):
    # a GCD module loaded before the counters go in must still reach
    # poly_divexact through polyops, where the counting wrapper sits: the
    # heuristic verifies its candidate by two exact divisions at each level,
    # the subresultant fallback divides out contents
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for module in LAZY_ENGINE_MODULES:
        importlib.import_module(f"lcslab.{module}")
    x2_y2 = {(2, 0): 1, (0, 2): -1}  # x^2 - y^2 and (x + y)^2, over x, y
    x_y_2 = {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    for gcd in (polyops._heu_gcd, polyops._gcd_rec):
        counters = layers.Counters(layers.Spans())
        patches = layers.Patches()
        layers._install_counters(counters, patches, symexpr, polyops, _poly_py)
        try:
            assert gcd(x2_y2, x_y_2) == {(1, 0): 1, (0, 1): 1}
        finally:
            patches.undo()
        assert counters.calls["poly_divexact"] > 0, gcd.__name__


# the spans each command must produce on example51 besides cli.report
# (example51 has no exact SGR 1-forms, so fit reports the witness and runs
# no round-trip residual)
COMMAND_SPANS = {
    "curvature": {"stage.stack", "check.self_check"},
    "check-lcs": {"stage.structure", "check.axioms"},
    "check SGR": {"conditions.residual", "stage.nabla_riemann"},
    "fit SGR": {"conditions.fit"},
    "soliton": {"stage.structure", "conditions.soliton"},
    "derived-conditions": {"stage.structure", "conditions.derived"},
    "conformance": {"stage.structure", "conditions.fit", "check.axioms", "check.self_check"},
}


def test_every_command_produces_its_spans(monkeypatch, tmp_path):
    # a command moved out of cli.py must still call the wrapped entry points
    # through the cli module, or its spans vanish without an error
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps({"A": ["x", "0", "1/z"], "B": ["0", "y", "1"]}), encoding="utf-8")
    # the benchmark's untraced rounds load every command module before the
    # spans go in, so a name bound at import would hold the unwrapped function
    for module, *_ in cli.COMMANDS.values():
        importlib.import_module(module, "lcslab")
    spans = layers.Spans()
    patches = layers.Patches()
    layers._install_spans(spans, patches, (cli, manifold, curvature, conditions, lcs_structure))
    try:
        for command in COMMAND_SPANS:
            spans.op_id = command
            name, *kind = command.split()
            options = {"kind": kind[0] if kind else None, "forms": str(forms), "p": "0", "lam": None}
            cli.run(name, cli.build_manifold(cli.load("example51")), options).to_json()
    finally:
        patches.undo()

    seen = {command: set() for command in COMMAND_SPANS}
    for name, _, _, _, op in spans.records:
        seen[op].add(name)
    for command, expected in COMMAND_SPANS.items():
        assert expected | {"cli.report"} <= seen[command], command
    assert "stage.nabla_riemann" not in seen["derived-conditions"]  # it reads the xi-slice only
    # the self-checks read nabla R on its Bianchi support only
    assert "stage.nabla_riemann" not in seen["curvature"] | seen["conformance"]
    assert set().union(*COMMAND_SPANS.values()) >= {
        "stage.structure",
        "stage.nabla_riemann",
        "check.axioms",
        "conditions.fit",
        "conditions.residual",
        "conditions.derived",
        "conditions.soliton",
    }


# The five seed-0 counters of each workload, as `perfbench/run.py --workload
# W --seed 0 --trace 1` reports them: one counted in-process round after an
# uncounted one.  A change to the arithmetic restates this table in the same
# commit, so the counters it moves are read here, not checked by hand.
SEED0_COUNTERS = {
    "paper3": {"expr_new": 1652, "poly_gcd": 1261, "poly_mul": 1615, "poly_divexact": 2480, "poly_lead": 735},
    "lcsN": {"expr_new": 3904, "poly_gcd": 2033, "poly_mul": 2253, "poly_divexact": 4024, "poly_lead": 1219},
    "dense": {"expr_new": 1964, "poly_gcd": 2582, "poly_mul": 3908, "poly_divexact": 5496, "poly_lead": 3838},
}


@pytest.mark.parametrize("workload", SEED0_COUNTERS)
def test_seed0_counters_are_pinned(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    ops = importlib.import_module("workloads").WORKLOADS[workload].build(0, tmp_path)
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]

    def order(round_index):  # run.py's order of a round
        shuffled = list(ops)
        random.Random(f"order:0:{round_index}").shuffle(shuffled)
        return shuffled

    run = layers.TracedRun(golden, order, "python")
    run._rounds(0, 1, None)  # loads every lazily imported module first, as the untraced rounds do
    counters = layers.Counters(layers.Spans())
    patches = layers.Patches()
    layers._install_spans(counters.spans, patches, run.lcslab_modules)
    layers._install_counters(counters, patches, *run.scalar_modules)
    try:
        run._rounds(0, 1, counters.spans)
    finally:
        patches.undo()
    assert run.failures == []
    got = {"expr_new": counters.expr_new, **{name: counters.calls[name] for name in ("poly_gcd", *layers.KERNELS)}}
    assert got == SEED0_COUNTERS[workload]
