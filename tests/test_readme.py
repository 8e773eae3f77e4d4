"""README is a reference for the engine as it is: each dotted name it gives
resolves, each convention names tests that exist, and it copies in no
measured time (CHANGES.md and the ``BENCH_*.json`` files hold the figures,
each with the change that measured it)."""

import ast
import importlib
import json
import re
from pathlib import Path

import lcslab
from lcslab import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def printed_check_ids(tmp_path) -> set[str]:
    """The check ids of every command's report on example51."""
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps({"A": ["x", "0", "1/z"], "B": ["0", "y", "1"]}), encoding="utf-8")
    data = cli.build_manifold(cli.load("example51"))
    ids = set()
    for command, (_, kinds, *_) in cli.COMMANDS.items():
        for kind in kinds or [None]:
            options = {"kind": kind, "forms": str(forms), "p": "0", "lam": None}
            ids |= {e.check_id for e in cli.run(command, data, options).entries}
    return ids


def test_dotted_names_resolve(tmp_path):
    # a backticked a.b.c whose head is an lcslab module or class names an
    # attribute, unless it is a check id a report prints (einstein.rxm) or a
    # benchmark metric (symexpr.expr_new)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for key in ("end_to_end", "per_layer") for m in benchmark[key]}
    exempt = metrics | printed_check_ids(tmp_path)
    modules = {"lcslab": lcslab} | {
        p.stem: importlib.import_module(f"lcslab.{p.stem}") for p in Path(lcslab.__file__).parent.glob("*.py") if p.stem != "__init__"
    }
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    checked, unresolved = [], []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README))):
        head, *rest = name.split(".")
        obj = modules.get(head, classes.get(head))
        if obj is None or name in exempt:
            continue
        checked.append(name)
        try:
            for part in rest:
                obj = getattr(obj, part)
        except AttributeError:
            unresolved.append(name)
    assert checked and unresolved == []


def test_named_tests_exist():
    # every `test_x.py::Class::name` README names is in the suite, and every
    # convention names at least one
    defined = {}
    for path in (ROOT / "tests").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = defined[path.name] = set()
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)}
    missing = []
    for file, parts in re.findall(r"`(test_\w+\.py)((?:::\w+)*)`", README):
        if file not in defined or (parts and parts[2:] not in defined[file]):
            missing.append(file + parts)
    assert missing == []
    conventions = README.split("### Conventions\n", 1)[1].split("\n## ", 1)[0]
    bullets = conventions.split("\n- ")[1:]
    assert bullets and all(re.search(r"`test_\w+\.py", bullet) for bullet in bullets)


def test_no_measured_time():
    # a time copied by hand goes stale with the next change to the engine
    assert re.findall(r"\d\s*(?:ms|µs|us|ns)\b", README) == []
    assert re.findall(r"\d-CPU", README, re.IGNORECASE) == []
