"""The names the benchmark's in-process trace patches must exist and be
restorable: a refactor that renames one fails here, not only under
``perfbench/run.py --trace 1``."""

import importlib
import json
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
            assert gcd(x2_y2, x_y_2, (0, 1)) == {(1, 0): 1, (0, 1): 1}
        finally:
            patches.undo()
        assert counters.calls["poly_divexact"] > 0, gcd.__name__


# the spans each command must produce on example51 besides cli.report
# (example51 has no exact SGR 1-forms, so fit reports the witness and runs
# no round-trip residual)
COMMAND_SPANS = {
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
    assert set().union(*COMMAND_SPANS.values()) >= {
        "stage.structure",
        "stage.nabla_riemann",
        "check.axioms",
        "conditions.fit",
        "conditions.residual",
        "conditions.derived",
        "conditions.soliton",
    }
