"""Command-line interface: definition files, structured reports, and the
built-in conformance case.

Definition files are UTF-8 JSON with keys name, coords, frame, metric, xi
(1-based frame index of the structure field), and optional sample_point.
Frame rows hold coordinate-basis coefficient expressions; metric rows hold
frame components.  Every cell is an expression string, except that a metric
cell may be null: it is then mirrored from the other side of the diagonal.
``load`` checks the shape of a definition and ``build_manifold`` parses its
cells, each through ``parse_cell``, whose load error names the cell.  A
built-in name (example51, flat3, lcs<N> and desitter<N> for N from 3 to 12;
see ``builtin_manifolds``) is usable wherever a path is expected.

Exit codes: 0 when no entry failed (info and mismatch entries included),
1 when any check failed, 2 when the definition could not be loaded, 3 when
the engine itself failed (one stderr line names the exception).

The ``conformance`` command diffs every engine-derived quantity of the
bundled reference manifold against the published component tables it was
transcribed from; any other manifold (another frame, metric or xi, under
any name) is refused as a load error, since the tables describe only it.
Where the two disagree, the report carries both values with status
``mismatch``; engine values are the ones validated by the structural
self-checks, and all downstream computation uses them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .builtin_manifolds import BUILTIN_FORMS, builtin
from .frame_geometry import Chart, Frame, FrameMetric, GeometryError, VectorField
from .manifold import ManifoldData
from .polyops import reset_memos
from .symexpr import Expr, ExprError, Var, parse, quote_text

if TYPE_CHECKING:
    from .conditions import RecurrenceForms, RecurrenceKind

# `curvature` needs neither the structure layer (lcs_structure) nor the
# condition layer (conditions), and `check-lcs` needs no condition, so each
# command imports only the layers it runs.  The entry points below call
# into them on first use; they stay attributes of this module, called
# through its globals, so a tracer can wrap them here.


def _lazy(module: str, name: str):
    def call(*args):
        return getattr(import_module(module, __package__), name)(*args)

    call.__name__ = call.__qualname__ = name
    return call


derive_structure = _lazy(".lcs_structure", "derive_structure")
verify_axioms = _lazy(".lcs_structure", "verify_axioms")
recurrence_fit = _lazy(".conditions", "recurrence_fit")
recurrence_residual = _lazy(".conditions", "recurrence_residual")
derived_condition_residuals = _lazy(".conditions", "derived_condition_residuals")
nabla_r_xi_identity = _lazy(".conditions", "nabla_r_xi_identity")
soliton_residual = _lazy(".conditions", "soliton_residual")

# the values of conditions.RecurrenceKind, for the argument parser
RECURRENCE_KINDS = ("SGR", "SGRR", "SGPR")


class LoadError(Exception):
    pass


# -- definition loading -----------------------------------------------------


class ManifoldDef(NamedTuple):
    """A definition of checked shape; ``build_manifold`` parses its cells."""

    name: str
    coords: list[str]
    frame: list[list]  # n x n JSON cells
    metric: list[list]  # n x n JSON cells; None mirrors the cell across the diagonal
    xi: int  # 1-based frame index
    sample_point: dict[str, str] | None = None
    source_text: str = ""  # raw file contents, for line numbers in errors


def _line_of(raw: str, value) -> str:
    """Best-effort line of a JSON cell in the file text, for error messages."""
    if not raw:
        return ""
    if isinstance(value, str):
        pos = raw.find(json.dumps(value))
        if pos < 0:
            pos = raw.find(value)
    else:
        # a number, boolean, array or object cell sits between array
        # punctuation; its tokens (strings, punctuation, bare literals) may
        # be spaced any way the file likes
        tokens = re.findall(r'"(?:[^"\\]|\\.)*"|[\[\]{},:]|[^\s"\[\]{},:]+', json.dumps(value))
        cell = r"\s*".join(map(re.escape, tokens))
        found = re.search(rf"[\[,]\s*({cell})\s*[,\]]", raw)
        pos = found.start(1) if found else -1
    return f" (line {raw.count(chr(10), 0, pos) + 1})" if pos >= 0 else ""


def parse_cell(value, where: str, variables, raw: str = "") -> Expr:
    """The expression in one cell of a definition or forms file.

    Anything else is a LoadError that names the cell (``frame[i][j]``,
    ``metric[i][j]``, ``A[i]``), quotes at most 80 characters of it and,
    when the file text ``raw`` is known, gives its line.
    """
    if not isinstance(value, str):
        raise LoadError(f"{where} must be an expression string{_line_of(raw, value)}")
    try:
        return parse(value, variables)
    except ExprError as exc:
        raise LoadError(f"{where}: {exc} in {quote_text(value)}{_line_of(raw, value)}") from None


def _cell_reader(variables, raw: str = ""):
    """``(cell, problems)``: ``cell(value, where)`` parses like ``parse_cell``
    but records a load error in ``problems`` and stands in zero, so one
    message can name every bad cell of a file."""
    problems: list[str] = []

    def cell(value, where: str) -> Expr:
        try:
            return parse_cell(value, where, variables, raw)
        except LoadError as exc:
            problems.append(str(exc))
            return Expr.zero(variables)

    return cell, problems


def _read_json(path: Path, label: str) -> tuple[str, object]:
    """The text and parsed JSON of a file; any read or parse failure is a LoadError."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"{label}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise LoadError(f"{label}: not UTF-8 text (byte {exc.start})") from None
    try:
        return raw, json.loads(raw)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{label}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def load(path_or_name: str, sample_override: dict | None = None) -> ManifoldDef:
    """Read a built-in or a definition file and check its shape; raises LoadError."""
    raw = ""
    payload = builtin(path_or_name)
    if payload is None:
        # os.path.exists, unlike Path.exists, is False for a name too long to stat
        if not os.path.exists(path_or_name):
            raise LoadError(f"no such file or built-in definition: {quote_text(path_or_name)} (built-ins: {BUILTIN_FORMS})")
        raw, payload = _read_json(Path(path_or_name), path_or_name)
    if not isinstance(payload, dict):
        raise LoadError(f"{path_or_name}: definition must be a JSON object")

    problems: list[str] = []
    name = payload.get("name", "")
    if not isinstance(name, str):
        problems.append("'name' must be a string")
    coords = payload.get("coords")
    if not isinstance(coords, list) or len(coords) < 2 or not all(isinstance(c, str) for c in coords):
        raise LoadError(f"{path_or_name}: 'coords' must be a list of at least 2 variable names")
    n = len(coords)
    try:
        if len(set(Var(c) for c in coords)) != n:
            problems.append("duplicate coordinate names")
    except ValueError as exc:
        problems.append(str(exc))

    frame = payload.get("frame")
    if not isinstance(frame, list) or len(frame) != n or any(not isinstance(r, list) or len(r) != n for r in frame):
        problems.append(f"'frame' must be a {n}x{n} array")

    metric_rows = payload.get("metric")
    metric: list[list] = [[None] * n for _ in range(n)]
    if not isinstance(metric_rows, list) or len(metric_rows) != n:
        problems.append(f"'metric' must have {n} rows")
    else:
        for i, row in enumerate(metric_rows):
            if isinstance(row, list) and len(row) in (n, n - i):
                metric[i][n - len(row) :] = row  # a short row starts at the diagonal
            else:
                problems.append(f"metric row {i + 1} must be a list of {n} entries (or {n - i} from the diagonal)")
        for i in range(n):
            for j in range(i, n):
                if metric[i][j] is None and metric[j][i] is None:
                    problems.append(f"metric entry ({i + 1},{j + 1}) is missing")

    xi = payload.get("xi")
    # bool is an int subclass: "xi": true must not pass as index 1
    if isinstance(xi, bool) or not isinstance(xi, int) or not 1 <= xi <= n:
        problems.append(f"'xi' must be a frame index between 1 and {n}")

    sample = payload.get("sample_point") or {}
    if not isinstance(sample, dict):
        problems.append("'sample_point' must be an object mapping coordinate names to values")
        sample = {}
    sample = {**sample, **(sample_override or {})}

    if problems:
        raise LoadError(f"{path_or_name}: " + "; ".join(problems))
    return ManifoldDef(
        name=name or Path(path_or_name).stem,
        coords=list(coords),
        frame=frame,
        metric=metric,
        xi=xi,
        sample_point={str(k): str(v) for k, v in sample.items()},
        source_text=raw,
    )


def build_manifold(defn: ManifoldDef) -> ManifoldData:
    """Parse a definition's cells into engine state; raises LoadError."""
    reset_memos()  # parsing and inverting the frame are this manifold's arithmetic too
    variables = tuple(Var(c) for c in defn.coords)
    chart = Chart(variables)
    cell, problems = _cell_reader(variables, defn.source_text)
    fields = [
        VectorField(chart, tuple(cell(c, f"frame[{i + 1}][{j + 1}]") for j, c in enumerate(row)))
        for i, row in enumerate(defn.frame)
    ]
    g = [
        [None if c is None else cell(c, f"metric[{i + 1}][{j + 1}]") for j, c in enumerate(row)]
        for i, row in enumerate(defn.metric)
    ]
    if problems:
        raise LoadError("; ".join(problems))
    g = [[e if e is not None else g[j][i] for j, e in enumerate(row)] for i, row in enumerate(g)]

    sample = {v: Fraction(2) for v in variables}
    for k, v in (defn.sample_point or {}).items():
        try:
            var, value = Var(k), Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise LoadError(f"bad sample_point entry {quote_text(k)}: {quote_text(v)}") from None
        if var not in sample:
            raise LoadError(f"sample_point names unknown coordinate {quote_text(k)}")
        sample[var] = value

    try:
        frame = Frame(tuple(fields))
        metric = FrameMetric.checked(frame, g, sample)
    except GeometryError as exc:
        raise LoadError(str(exc)) from None
    return ManifoldData(defn.name, frame, metric, defn.xi - 1)


# -- reports ----------------------------------------------------------------

PASS, FAIL, INFO, MISMATCH = "pass", "fail", "info", "mismatch"


class ReportEntry(NamedTuple):
    check_id: str
    status: str
    title: str
    engine: str | None = None
    published: str | None = None
    residual: str | None = None
    note: str | None = None


class Report:
    def __init__(self, command: str, manifold: str, notes=(), entries=()):
        self.command = command
        self.manifold = manifold
        self.notes = list(notes)
        self.entries = list(entries)

    def add(self, *fields, **named):
        """Append ``ReportEntry(*fields, **named)``."""
        self.entries.append(ReportEntry(*fields, **named))

    @property
    def exit_code(self) -> int:
        return 1 if any(e.status == FAIL for e in self.entries) else 0

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INFO: 0, MISMATCH: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def to_text(self) -> str:
        lines = [f"lcslab {self.command}: {self.manifold}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        width = max((len(e.status) for e in self.entries), default=4)
        for e in self.entries:
            lines.append(f"[{e.status:<{width}}] {e.check_id}: {e.title}")
            if e.engine is not None:
                lines.append(f"{' ' * (width + 3)}engine:    {e.engine}")
            if e.published is not None:
                lines.append(f"{' ' * (width + 3)}published: {e.published}")
            if e.residual is not None:
                lines.append(f"{' ' * (width + 3)}residual:  {e.residual}")
            if e.note is not None:
                lines.append(f"{' ' * (width + 3)}note:      {e.note}")
        c = self.counts()
        lines.append(f"summary: {c[PASS]} pass, {c[FAIL]} fail, {c[MISMATCH]} mismatch, {c[INFO]} info")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "manifold": self.manifold,
            "notes": self.notes,
            "entries": [e._asdict() for e in self.entries],
            "summary": self.counts(),
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


CONVENTION_NOTE = (
    "Ricci convention: S(Y,Z) = sum g^{ab} g(R(E_a,Y)Z, E_b), pinned so the "
    "reference manifold has S(E3,E3) = -4/z^2"
)


def format_vector(comps) -> str:
    parts = []
    for i, c in enumerate(comps):
        if c.is_zero:
            continue
        text = str(c)
        if text == "1":
            parts.append(f"E{i + 1}")
        elif text == "-1":
            parts.append(f"-E{i + 1}")
        elif "+" in text or " - " in text or "/" in text:
            parts.append(f"({text}) E{i + 1}")
        else:
            parts.append(f"{text} E{i + 1}")
    return " + ".join(parts) if parts else "0"


def first_nonzero(tensor):
    """Index and value of the first nonzero scalar, a vector leaf's component
    index appended; (None, None) for the zero tensor."""
    for idx, leaf in tensor.comps.items():
        if tensor.valence[0] == 0:
            return idx, leaf
        u = next(u for u, e in enumerate(leaf) if not e.is_zero)
        return idx + (u,), leaf[u]
    return None, None


def add_upper_pairs(report: Report, label: str, title: str, tensor) -> int:
    """One entry per nonzero leaf T(E_i,E_j)E_k of a (1,3) tensor with i < j,
    in index order; returns the number added."""
    shown = 0
    for (i, j, k), vec in tensor.comps.items():
        if i < j:
            pos = f"{i + 1}{j + 1}{k + 1}"
            report.add(f"{label}.{pos}", INFO, f"{title}(E{i + 1},E{j + 1})E{k + 1}", engine=format_vector(vec))
            shown += 1
    return shown


def add_self_checks(data: ManifoldData, report: Report) -> None:
    """One pass/fail entry per structural self-check of the curvature stack."""
    for name, ok in data.stack.self_check(data.metric, data.nabla_riemann):
        report.add(f"self-check.{name}", PASS if ok else FAIL, name)


def residual_excerpt(tensor) -> str | None:
    idx, value = first_nonzero(tensor)
    if idx is None:
        return None
    pos = ",".join(str(i + 1) for i in idx)
    return f"component ({pos}) = {value}"


# -- commands ---------------------------------------------------------------


def _structure_or_report(data: ManifoldData, report: Report):
    from .lcs_structure import NotLcsError

    try:
        return derive_structure(data, data.xi_index)
    except NotLcsError as exc:
        report.add("structure", FAIL, "structure extraction", note=str(exc))
        return None


def cmd_check_lcs(data: ManifoldData, report: Report) -> None:
    from .lcs_structure import EinsteinKind, classify

    st = _structure_or_report(data, report)
    if st is None:
        return
    report.add("structure.alpha", INFO, "alpha", engine=str(st.alpha))
    report.add("structure.rho", INFO, "rho = -xi(alpha)", engine=str(st.rho))
    report.add("structure.beta", INFO, "beta from d(rho) = beta eta", engine=str(st.beta))
    k2 = st.alpha * st.alpha - st.rho
    report.add("structure.alpha2-rho", INFO, "alpha^2 - rho", engine=str(k2))
    for check in verify_axioms(data, st):
        report.add(
            f"axiom.{check.axiom}",
            PASS if check.passed else FAIL,
            check.description,
            note=check.detail or None,
        )
    verdict = classify(data.stack.ricci, data.metric, st.eta)
    if verdict.kind is EinsteinKind.NEITHER:
        report.add("classification", INFO, "Ricci shape", engine="neither Einstein nor eta-Einstein")
    else:
        report.add(
            "classification",
            INFO,
            "Ricci shape S = a g + b eta x eta",
            engine=f"{verdict.kind.value} with a = {verdict.a}, b = {verdict.b}",
        )


def cmd_curvature(data: ManifoldData, report: Report) -> None:
    n = data.dim
    for i in range(n):
        for j in range(n):
            report.add(
                f"connection.{i + 1}{j + 1}",
                INFO,
                f"nabla_E{i + 1} E{j + 1}",
                engine=format_vector(data.connection.gamma[i][j]),
            )
    if not add_upper_pairs(report, "riemann", "R", data.stack.riemann13):
        report.add("riemann", INFO, "curvature tensor", engine="0 (flat)")
    for (i, j), value in data.stack.ricci.comps.items():
        if i <= j:
            report.add(f"ricci.{i + 1}{j + 1}", INFO, f"S(E{i + 1},E{j + 1})", engine=str(value))
    report.add("scalar", INFO, "scalar curvature r", engine=str(data.stack.scalar))
    for i in range(n):
        report.add(f"ricci-operator.{i + 1}", INFO, f"Q E{i + 1}", engine=format_vector(data.stack.q_operator.comp(i)))
    for label, tensor in (("m-projective", data.m_projective), ("concircular", data.concircular)):
        if tensor.is_zero():
            report.add(label, INFO, f"{label} tensor", engine="0")
        else:
            add_upper_pairs(report, label, label, tensor)
    add_self_checks(data, report)


def _load_forms(data: ManifoldData, forms_path: str) -> RecurrenceForms:
    from .conditions import RecurrenceForms

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


def cmd_check_recurrence(data: ManifoldData, report: Report, kind: RecurrenceKind, forms: RecurrenceForms) -> None:
    from .conditions import RecurrenceKind, sgr_predictions
    from .lcs_structure import NotLcsError

    for i, (a, b) in enumerate(zip(forms.a, forms.b)):
        report.add(f"forms.{i + 1}", INFO, f"A(E{i + 1}), B(E{i + 1})", engine=f"{a}, {b}")
    try:
        residual, is_zero = recurrence_residual(data, kind, forms)
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
        gate_note = None if is_zero else "hypothesis residual nonzero; reported informationally"
        if pred.r_predicted is None:
            report.add("predictions.scalar", INFO, "predicted scalar curvature", note=pred.r_note)
        else:
            status = (PASS if pred.r_matches else FAIL) if is_zero else INFO
            report.add(
                "predictions.scalar",
                status,
                "predicted vs engine scalar curvature",
                engine=f"engine {pred.r_engine}, predicted {pred.r_predicted}",
                note=gate_note,
            )
        if pred.opposition is None:
            report.add("predictions.opposition", INFO, "A + (n^2/r) B", note=pred.opposition_note)
        else:
            status = (PASS if pred.opposition_zero else FAIL) if is_zero else INFO
            report.add(
                "predictions.opposition",
                status,
                "A + (n^2/r) B = 0",
                engine=", ".join(str(e) for e in pred.opposition),
                note=gate_note,
            )


def cmd_fit(data: ManifoldData, report: Report, kind: RecurrenceKind) -> None:
    from .conditions import NoSolution, RecurrenceKind

    if kind is RecurrenceKind.SGPR:
        raise LoadError("fit supports SGR and SGRR")
    result = recurrence_fit(data, kind)
    if isinstance(result, NoSolution):
        report.add(
            f"fit.{kind.value}",
            INFO,
            f"{kind.value} fit has no exact solution",
            note=result.describe(),
        )
        return
    for i, (a, b) in enumerate(zip(result.a, result.b)):
        report.add(f"fit.{kind.value}.{i + 1}", INFO, f"A(E{i + 1}), B(E{i + 1})", engine=f"{a}, {b}")
    report.add(
        f"fit.{kind.value}.duals",
        INFO,
        "metric duals rho1, rho2",
        engine=f"{format_vector(result.rho1)}; {format_vector(result.rho2)}",
    )
    _, is_zero = recurrence_residual(data, kind, result)
    report.add(
        f"fit.{kind.value}.roundtrip",
        PASS if is_zero else FAIL,
        "fitted forms reproduce the condition exactly",
    )


def cmd_soliton(data: ManifoldData, report: Report, p_text: str, lambda_text: str | None) -> None:
    from .conditions import SolitonParams, soliton_lambda
    from .lcs_structure import NotLcsError

    chart = data.chart
    try:
        p = chart.parse(p_text)
    except ExprError as exc:
        raise LoadError(f"bad --p expression: {exc}") from None

    alpha = None
    try:
        alpha = data.structure.alpha
    except NotLcsError:
        pass

    lam_printed = lam_traced = None
    if alpha is not None:
        lam_printed, lam_traced = soliton_lambda(alpha, p, data.dim)
        report.add("lambda.printed", INFO, "lambda = p/2 + ((n+1)/n) alpha", engine=str(lam_printed))
        report.add("lambda.traced", INFO, "lambda from the trace with g(xi,xi) = -1 and r = -1", engine=str(lam_traced))
        if lam_printed != lam_traced:
            report.add(
                "lambda.difference",
                INFO,
                "the two lambda derivations disagree",
                engine=str(lam_printed - lam_traced),
                note="both are reported; neither is preferred silently",
            )
    if lambda_text is not None:
        try:
            lam = chart.parse(lambda_text)
        except ExprError as exc:
            raise LoadError(f"bad --lambda expression: {exc}") from None
    elif lam_printed is not None:
        lam = lam_printed
    else:
        report.add("soliton", FAIL, "soliton residual", note="no structure alpha available; pass --lambda explicitly")
        return

    if not lam.is_constant:
        report.add(
            "lambda.constancy",
            INFO,
            "lambda is not constant",
            engine=str(lam),
            note="treated as a scalar field; the derivations presume a scalar",
        )
    if alpha is not None:
        params = SolitonParams.derive(lam, p, alpha, data.dim)
        report.add("soliton.k", INFO, "k = lambda - (p/2 + 1/n) - alpha", engine=str(params.k))
    else:
        params = SolitonParams(lam, p)
    check = soliton_residual(data, data.xi_components(), params)
    report.add(
        "soliton.residual",
        INFO,
        "L_xi g + 2S - [2 lambda - (p + 2/n)] g",
        engine="0 (conformal soliton)" if check.is_soliton else "nonzero (not a conformal soliton)",
        residual=residual_excerpt(check.residual),
    )
    if check.eta_einstein_residual is not None:
        zero = check.eta_einstein_residual.is_zero()
        report.add(
            "soliton.eta-einstein",
            INFO,
            "S - k g + alpha eta x eta",
            engine="0" if zero else "nonzero",
            residual=residual_excerpt(check.eta_einstein_residual),
        )


def cmd_derived_conditions(data: ManifoldData, report: Report) -> None:
    from .lcs_structure import EinsteinKind, NotLcsError

    try:
        out = derived_condition_residuals(data)
    except NotLcsError as exc:
        report.add("derived-conditions", FAIL, "derived conditions", note=f"needs a concircular structure: {exc}")
        return
    report.add(
        "mproj-xi",
        PASS if out.mproj_xi_residual.is_zero() else FAIL,
        "eta(M(X,Y)xi) = 0",
        residual=residual_excerpt(out.mproj_xi_residual),
    )
    report.add(
        "rxm",
        INFO,
        "R(xi,X) acting on the M-projective tensor",
        engine="0" if out.rxm_zero else "nonzero",
        residual=residual_excerpt(out.rxm),
    )
    report.add(
        "cxs",
        INFO,
        "C(xi,X) acting on the Ricci tensor",
        engine="0" if out.cxs_zero else "nonzero",
        residual=residual_excerpt(out.cxs),
    )
    report.add("guard.rxm", INFO, "guard alpha^2 - rho", engine=str(out.guard_rxm))
    report.add("guard.cxs", INFO, "guard n(n-1)(alpha^2 - rho) + 1", engine=str(out.guard_cxs))
    for label, verdict in (("rxm", out.einstein_from_rxm), ("cxs", out.einstein_from_cxs)):
        if verdict is None:
            report.add(f"einstein.{label}", INFO, "Einstein conclusion not gated", note="hypothesis or guard not met")
            continue
        report.add(
            f"einstein.{label}",
            PASS if verdict.kind is EinsteinKind.EINSTEIN else FAIL,
            "vanishing action + nonzero guard imply an Einstein manifold",
            engine=verdict.kind.value + (f" with a = {verdict.a}" if verdict.a is not None else ""),
        )
    ident = nabla_r_xi_identity(data)
    report.add(
        "xi-derivative-identity",
        PASS if ident.passed else FAIL,
        "g((nabla_W R)(xi,Y)Z, xi) = -(2 alpha rho - beta){g(Y,Z) + eta(Y)eta(Z)} eta(W)",
        engine=f"2 alpha rho - beta = {ident.coefficient}",
        residual=residual_excerpt(ident.residual),
        note="passes under the sign-flipped beta convention" if ident.sign_flipped else None,
    )


# -- conformance -------------------------------------------------------------

PUBLISHED_BRACKETS = {
    (0, 1): ("0", "-z", "0"),
    (0, 2): ("-1/z", "0", "0"),
    (1, 2): ("0", "-1/z", "0"),
}

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

PUBLISHED_CURVATURE = {
    (1, 2, 2): ("0", "-2/z^2", "0"),
    (0, 2, 2): ("-2/z^2", "0", "0"),
    (0, 1, 1): ("1/z^2 - z^2", "0", "0"),
    (1, 2, 1): ("0", "0", "-2/z^2"),
    (0, 1, 0): ("0", "z^2 - 1/z^2", "0"),
    (0, 2, 0): ("0", "0", "-2/z^2"),
}

PUBLISHED_RICCI = {
    (0, 0): "-(z^2 + 1/z^2)",
    (1, 1): "-(z^2 + 1/z^2)",
    (2, 2): "-4/z^2",
}

PUBLISHED_PHI = {0: ("1", "0", "0"), 1: ("0", "1", "0"), 2: ("0", "0", "0")}

PUBLISHED_ALPHA = "-1/z"
PUBLISHED_RHO = "-1/z^2"

# published covariant derivative of the Ricci tensor, as a full tensor:
# direction -> {(i, j): coefficient}; everything not listed is zero
PUBLISHED_NABLA_RICCI = {
    0: {(0, 2): "-(z + 5/z^3)", (2, 0): "-(z + 5/z^3)"},
    1: {(1, 2): "-(z + 5/z^3)", (2, 1): "-(z + 5/z^3)"},
    2: {},
}

# published recurrence 1-forms; the nonzero entries depend on the vector
# arguments a_i, b_i, c_i and are recorded verbatim as text
PUBLISHED_FORMS_A = (
    "(a1 c2 + c1 a2) / (z (a1 a2 + b1 b2))",
    "(b1 c2 + c1 b2) / (z (a1 a2 + b1 b2))",
    "0",
)
PUBLISHED_FORMS_B = (
    "-4 (a1 c2 + c1 a2) / (3 z^3 (a1 a2 + b1 b2))",
    "-4 (b1 c2 + c1 b2) / (3 z^3 (a1 a2 + b1 b2))",
    "0",
)


def cmd_conformance(data: ManifoldData, report: Report) -> None:
    from .conditions import RecurrenceKind

    chart = data.chart
    pub = lambda text: chart.parse(text)
    ref = builtin("example51")
    cells = lambda rows: tuple(tuple(map(pub, row)) for row in rows)
    if not (
        [v.name for v in chart.coords] == ref["coords"]
        and data.xi_index == ref["xi"] - 1
        and tuple(f.coeffs for f in data.frame.fields) == cells(ref["frame"])
        and data.metric.g == cells(ref["metric"])
    ):
        raise LoadError(
            "conformance compares with the published tables of example51, so it needs that manifold: "
            "coordinates x, y, z and the same frame, metric and xi"
        )

    def diff_vector(check_id, title, engine_vec, published_texts):
        published_vec = tuple(pub(t) for t in published_texts)
        same = all(a == b for a, b in zip(engine_vec, published_vec))
        report.add(
            check_id,
            PASS if same else MISMATCH,
            title,
            engine=format_vector(engine_vec),
            published=format_vector(published_vec),
        )
        return same

    for (i, j), texts in sorted(PUBLISHED_BRACKETS.items()):
        diff_vector(f"bracket.{i + 1}{j + 1}", f"[E{i + 1},E{j + 1}]", data.brackets[i][j], texts)

    for (i, j), texts in sorted(PUBLISHED_CONNECTION.items()):
        diff_vector(f"connection.{i + 1}{j + 1}", f"nabla_E{i + 1} E{j + 1}", data.connection.gamma[i][j], texts)

    riem = data.stack.riemann13
    for (i, j, k), texts in sorted(PUBLISHED_CURVATURE.items()):
        diff_vector(f"riemann.{i + 1}{j + 1}{k + 1}", f"R(E{i + 1},E{j + 1})E{k + 1}", riem.comp(i, j, k), texts)

    st = derive_structure(data, data.xi_index)
    for check_id, engine_value, published_text, title in (
        ("structure.alpha", st.alpha, PUBLISHED_ALPHA, "alpha"),
        ("structure.rho", st.rho, PUBLISHED_RHO, "rho"),
    ):
        same = engine_value == pub(published_text)
        report.add(check_id, PASS if same else MISMATCH, title, engine=str(engine_value), published=published_text)
    report.add(
        "structure.beta",
        INFO,
        "beta from d(rho) = beta eta",
        engine=str(st.beta),
        note="no published value; the proportionality convention mirrors the one for rho",
    )
    for i, texts in sorted(PUBLISHED_PHI.items()):
        diff_vector(f"structure.phi.{i + 1}", f"phi E{i + 1}", st.phi.comp(i), texts)
    eta_ok = st.eta_of(st.xi) == chart.const(-1)
    report.add("structure.eta-xi", PASS if eta_ok else FAIL, "eta(E3) = -1", engine=str(st.eta_of(st.xi)), published="-1")

    ric = data.stack.ricci
    for (i, j), text in sorted(PUBLISHED_RICCI.items()):
        engine_value = ric.comp(i, j)
        published_value = pub(text)
        same = engine_value == published_value
        report.add(
            f"ricci.{i + 1}{j + 1}",
            PASS if same else MISMATCH,
            f"S(E{i + 1},E{j + 1})",
            engine=str(engine_value),
            published=text,
            note=None
            if same
            else "engine value validated by direct contraction of the engine curvature tensor "
            "and exact rational evaluation; downstream checks use it",
        )

    nabla_s = data.nabla_ricci
    n = data.dim
    for w in range(n):
        published_map = PUBLISHED_NABLA_RICCI[w]
        diffs = []
        for i in range(n):
            for j in range(n):
                engine_value = nabla_s.comp(w, i, j)
                published_value = pub(published_map.get((i, j), "0"))
                if engine_value != published_value:
                    diffs.append(f"({i + 1},{j + 1}): engine {engine_value}, published {published_value}")
        report.add(
            f"nabla-ricci.{w + 1}",
            PASS if not diffs else MISMATCH,
            f"(nabla_E{w + 1} S) components",
            engine="matches" if not diffs else "; ".join(diffs[:3]) + ("; ..." if len(diffs) > 3 else ""),
            published="full table as printed",
            note=None if not diffs else "derived from the published Ricci values, which the engine also flags",
        )

    # example51 has no exact SGRR 1-forms, so the fit is a NoSolution witness
    fit = recurrence_fit(data, RecurrenceKind.SGRR)
    report.add(
        "forms.fit",
        MISMATCH,
        "Ricci-recurrence 1-forms A, B",
        engine=f"no exact 1-forms exist: {fit.describe()}",
        published=f"A = {PUBLISHED_FORMS_A}; B = {PUBLISHED_FORMS_B}",
        note="the published entries depend on the vector arguments, so they are not 1-forms on the manifold",
    )
    report.add(
        "recurrence.SGRR",
        MISMATCH,
        "semi-generalized Ricci recurrence",
        engine="condition has no exact solution with genuine 1-forms",
        published="manifold is reported to satisfy the condition",
    )

    add_self_checks(data, report)

    axiom_checks = verify_axioms(data, st)
    bad = [c for c in axiom_checks if not c.passed]
    report.add(
        "axioms",
        PASS if not bad else FAIL,
        f"structure axioms ({len(axiom_checks)} checks)",
        note=None if not bad else "; ".join(c.axiom for c in bad),
    )


# -- dispatch -----------------------------------------------------------------


def run(command: str, data: ManifoldData, options: dict) -> Report:
    report = Report(command=command, manifold=data.name, notes=[CONVENTION_NOTE])
    if command == "check-lcs":
        cmd_check_lcs(data, report)
    elif command == "curvature":
        cmd_curvature(data, report)
    elif command == "check":
        from .conditions import RecurrenceKind

        cmd_check_recurrence(data, report, RecurrenceKind(options["kind"]), _load_forms(data, options["forms"]))
    elif command == "fit":
        from .conditions import RecurrenceKind

        cmd_fit(data, report, RecurrenceKind(options["kind"]))
    elif command == "soliton":
        cmd_soliton(data, report, options.get("p", "0"), options.get("lam"))
    elif command == "derived-conditions":
        cmd_derived_conditions(data, report)
    elif command == "conformance":
        cmd_conformance(data, report)
    else:
        raise LoadError(f"unknown command {command!r}")
    return report


def _parse_sample(text: str | None) -> dict | None:
    if not text:
        return None
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise LoadError(f"bad --sample entry {quote_text(piece)}; use name=value")
        key, _, value = piece.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lcslab", description="Exact curvature engine for framed Lorentzian manifolds")
    parser.add_argument("--version", action="version", version=f"lcslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("definition", nargs="?", default="example51", help="definition file or built-in name")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.add_argument("--sample", help="signature sample point, e.g. x=2,y=2,z=2")

    add_common(sub.add_parser("check-lcs", help="derive the structure and verify every axiom"))
    add_common(sub.add_parser("curvature", help="connection, curvature, Ricci, scalar, derived tensors"))

    p = sub.add_parser("check", help="test a recurrence condition with given 1-forms")
    p.add_argument("kind", choices=RECURRENCE_KINDS)
    add_common(p)
    p.add_argument("--forms", required=True, help="JSON file with 'A' and 'B' expression arrays")

    p = sub.add_parser("fit", help="solve exactly for recurrence 1-forms")
    p.add_argument("kind", choices=RECURRENCE_KINDS[:2])
    add_common(p)

    p = sub.add_parser("soliton", help="conformal soliton residual and scalar")
    add_common(p)
    p.add_argument("--V", default="xi", choices=["xi"], help="soliton vector field (the structure field)")
    p.add_argument("--p", default="0", help="conformal pressure expression")
    p.add_argument("--lambda", dest="lam", default=None, help="soliton scalar expression (default: derived)")

    add_common(sub.add_parser("derived-conditions", help="action tensors, guards, and gated conclusions"))
    add_common(sub.add_parser("conformance", help="diff engine values against the published tables"))
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        sample = _parse_sample(getattr(args, "sample", None))
        defn = load(args.definition, sample)
        data = build_manifold(defn)
        report = run(args.command, data, vars(args))
        text = report.to_json() if args.json else report.to_text()
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault: exit 1 keeps meaning "a check failed"
        print(f"internal error: {type(exc).__name__}: {quote_text(str(exc))}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
