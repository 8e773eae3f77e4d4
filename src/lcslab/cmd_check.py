"""The ``check KIND --forms F`` report: a recurrence condition with given
1-forms and, for SGR, the scalar-curvature predictions."""

from __future__ import annotations

from pathlib import Path

from . import cli
from .cli import FAIL, INFO, PASS, LoadError, Report, _cell_reader, _read_json, residual_excerpt
from .conditions import RecurrenceForms, RecurrenceKind, sgr_predictions
from .lcs_structure import NotLcsError
from .manifold import ManifoldData


def _load_forms(data: ManifoldData, forms_path: str) -> RecurrenceForms:
    raw, payload = _read_json(Path(forms_path), forms_path)
    n = data.dim
    if not isinstance(payload, dict) or not all(isinstance(payload.get(k), list) for k in ("A", "B")):
        raise LoadError(f"{forms_path}: forms file needs 'A' and 'B' arrays")
    if len(payload["A"]) != n or len(payload["B"]) != n:
        raise LoadError(f"{forms_path}: 'A' and 'B' must each have {n} entries")
    cell, problems = _cell_reader(data.chart.coords, raw)
    a, b = ([cell(v, f"{k}[{i + 1}]") for i, v in enumerate(payload[k])] for k in "AB")
    if problems:
        raise LoadError(f"{forms_path}: " + "; ".join(problems))
    return RecurrenceForms.from_covectors(data, a, b)


def run(data: ManifoldData, report: Report, options: dict) -> None:
    kind = RecurrenceKind(options["kind"])
    forms = _load_forms(data, options["forms"])
    for i, (a, b) in enumerate(zip(forms.a, forms.b)):
        report.add(f"forms.{i + 1}", INFO, f"A(E{i + 1}), B(E{i + 1})", engine=f"{a}, {b}")
    try:
        residual, is_zero = cli.recurrence_residual(data, kind, forms)
    except NotLcsError as exc:
        report.add("recurrence", FAIL, f"{kind.value} residual", note=f"needs a concircular structure: {exc}")
        return
    report.add(
        f"recurrence.{kind.value}",
        PASS if is_zero else FAIL,
        f"{kind.value} condition with the given forms",
        residual=None if is_zero else residual_excerpt(residual),
        note="residual is identically zero" if is_zero else "residual is nonzero",
    )
    if kind is RecurrenceKind.SGR:
        try:
            pred = sgr_predictions(data, forms)
        except NotLcsError as exc:
            report.add("predictions", INFO, "scalar-curvature predictions", note=str(exc))
            return
        # each gated prediction: its id, its title, the reason it is blocked (empty when it is
        # not), whether it holds, the engine's value, and its title when blocked
        rows = (
            (
                "predictions.scalar",
                "predicted vs engine scalar curvature",
                pred.r_note,
                pred.r_matches,
                f"engine {pred.r_engine}, predicted {pred.r_predicted}",
                "predicted scalar curvature",
            ),
            (
                "predictions.opposition",
                "A + (n^2/r) B = 0",
                pred.opposition_note,
                pred.opposition_zero,
                ", ".join(str(e) for e in pred.opposition or ()),
                "A + (n^2/r) B",
            ),
        )
        for check_id, title, blocked, holds, engine, blocked_title in rows:
            cli.add_gated(report, check_id, title, is_zero, blocked, holds, engine, blocked_title)
