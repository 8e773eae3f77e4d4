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
1 when any check failed, 2 when the command line was refused or the
definition could not be loaded, 3 when the engine itself failed (one stderr
line names the exception).

Commands: this module holds what every command uses: the command table
(``COMMANDS``) with its argv reader (``read_argv``) and --help text,
``load`` and ``build_manifold``, ``Report`` and the shared renderers.  Each
command's report code is a module of its own, imported by ``run`` through
``COMMANDS`` when that command runs: ``cmd_curvature`` (curvature),
``cmd_check_lcs`` (check-lcs), ``cmd_check`` (check), ``cmd_fit`` (fit),
``cmd_soliton`` (soliton), ``cmd_derived_conditions`` (derived-conditions)
and ``cmd_conformance`` (conformance, with the published tables it diffs
against).  The engine code that only some commands run is split the same
way, each part imported by the commands that run it: the structure
(``lcs_structure``), its axioms (``axioms``), the Ricci classification
(``einstein``), the recurrence conditions (``conditions``), the soliton
(``soliton``), the derived conditions (``derived_conditions``), the
curvature self-checks (``self_checks``) and the heuristic and subresultant
GCDs (``_heugcd``, ``_subresultant``).  The table of built-in definitions
(``builtin_manifolds``) is imported only for an alphanumeric argument: every
built-in name is one, so a path with a '/' or a '.' never loads it.  A cold
command thus compiles only its own report code and the engine code it runs.
It imports no argparse (which loads gettext and locale): ``read_argv``
reads argv by a grammar of its own, from the command table.  It builds no
typing.NamedTuple (which compiles a ForwardRef per field): the records are
collections.namedtuple subclasses.

Numbers: a sample value is an integer pair (numerator, denominator), and the
signature check evaluates the metric in integers (``FrameMetric.checked``).
Only a value that is not a plain ASCII integer, or an error that prints the
point, imports ``fractions`` (with ``decimal`` and ``numbers``); the accepted
text is exactly what ``Fraction`` accepts, with an exponent of magnitude at
most 4,300.

Shutdown: run as the process's command (``argv`` None: the console script,
``python -m lcslab.cli``), ``main`` first turns the cyclic garbage
collector off with ``gc.disable()``.  One command makes no cyclic garbage
that grows with its input (what a command leaves unreachable is a constant
33 objects under --json, the JSON encoder's closures, and none without it),
so the collections a run would make walk live objects only, and the process
ends before any garbage would matter; reference counting still frees
everything acyclic.
After the report is written it flushes stdout and stderr and ends the
process with ``os._exit``: no interpreter teardown (no final collection, no
module cleanup, no atexit handlers), and the operating system reclaims the
memory.  If a flush fails, ``main`` returns instead, and the interpreter's
own exit retries the flush and reports the failure as it always has.  A
caller that passes ``argv`` (a test, an in-process benchmark) gets the exit
code back and keeps its collector as it was.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from collections import namedtuple
from importlib import import_module
from pathlib import Path

from . import __version__
from .frame_geometry import Chart, Frame, FrameMetric, GeometryError, VectorField
from .manifold import ManifoldData
from .polyops import reset_memos
from .symexpr import Expr, ExprError, Var, parse, quote_text

# `curvature` needs neither the structure (lcs_structure, axioms) nor any
# condition (conditions, soliton, derived_conditions), and `check-lcs` needs
# no condition, so each command imports only the layers it runs (module
# docstring).  The entry points below call
# into them on first use; they stay attributes of this module, and the
# command modules call them as ``cli.<name>``, so a tracer can wrap them here.


def _lazy(module: str, name: str):
    def call(*args):
        return getattr(import_module(module, __package__), name)(*args)

    call.__name__ = call.__qualname__ = name
    return call


derive_structure = _lazy(".lcs_structure", "derive_structure")
verify_axioms = _lazy(".axioms", "verify_axioms")
recurrence_fit = _lazy(".conditions", "recurrence_fit")
recurrence_residual = _lazy(".conditions", "recurrence_residual")
derived_condition_residuals = _lazy(".derived_conditions", "derived_condition_residuals")
nabla_r_xi_identity = _lazy(".derived_conditions", "nabla_r_xi_identity")
soliton_residual = _lazy(".soliton", "soliton_residual")

# the values of conditions.RecurrenceKind, for the command table
RECURRENCE_KINDS = ("SGR", "SGRR", "SGPR")


class LoadError(Exception):
    pass


# -- definition loading -----------------------------------------------------


class ManifoldDef(namedtuple("ManifoldDef", "name coords frame metric xi sample_point source_text", defaults=(None, ""))):
    """A definition of checked shape; ``build_manifold`` parses its cells.

    name (str); coords (list of str); frame (n x n JSON cells); metric
    (n x n JSON cells, None mirrors the cell across the diagonal); xi (int,
    1-based frame index); sample_point (dict of str to str, or None);
    source_text (str: raw file contents, for line numbers in errors).
    """

    __slots__ = ()


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
    payload = None
    # every built-in name is alphanumeric; any other argument (a path with a
    # '/' or a '.' in it, say) never names one, so it loads no built-in table
    if path_or_name.isalnum():
        from .builtin_manifolds import builtin

        payload = builtin(path_or_name)
    if payload is None:
        # os.path.exists, unlike Path.exists, is False for a name too long to stat
        if not os.path.exists(path_or_name):
            from .builtin_manifolds import BUILTIN_FORMS

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

    sample = payload.get("sample_point")
    if sample is None:  # a missing key or null: no sample point
        sample = {}
    elif not isinstance(sample, dict):
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


def _sample_value(text: str) -> tuple[int, int]:
    """A sample-point value as (numerator, denominator > 0) in lowest terms.

    It accepts exactly the text ``Fraction`` does ("-3", " 5 ", "1/2",
    "2.5", "1e1") with an exponent of magnitude at most 4,300, and raises
    its ValueError or ZeroDivisionError otherwise.  A larger exponent is a
    ValueError before anything is expanded: ``Fraction`` would build the
    power of ten, which for "1e-5000000000" does not finish, while 4,300 is
    the digit count past which ``int`` already refuses a text.  Plain ASCII
    digits with an optional sign go through ``int``, so an integer point
    imports no ``fractions``.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return int(text), 1
    exponent = re.search(r"[eE]([+-]?[\d_]+)", text)  # the only 'e' Fraction's grammar has
    if exponent and abs(int(exponent[1])) > 4300:
        raise ValueError(f"sample exponent {exponent[1]} out of range")
    from fractions import Fraction

    q = Fraction(text)
    return q.numerator, q.denominator


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

    sample = {v: (2, 1) for v in variables}
    for k, v in (defn.sample_point or {}).items():
        try:
            var, value = Var(k), _sample_value(v)
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


class ReportEntry(namedtuple("ReportEntry", "check_id status title engine published residual note", defaults=(None,) * 4)):
    """check_id, status (PASS, FAIL, INFO or MISMATCH) and title (str); engine,
    published, residual and note (str or None)."""

    __slots__ = ()


CONVENTION_NOTE = (
    "Ricci convention: S(Y,Z) = sum g^{ab} g(R(E_a,Y)Z, E_b), pinned so the "
    "reference manifold has S(E3,E3) = -4/z^2"
)


class Report:
    def __init__(self, command: str, manifold: str):
        self.command = command
        self.manifold = manifold
        self.notes = [CONVENTION_NOTE]
        self.entries = []

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


def add_self_checks(data: ManifoldData, report: Report) -> None:
    """One pass/fail entry per structural self-check of the curvature stack."""
    for name, ok in data.stack.self_check(data.metric, data.connection):
        report.add(f"self-check.{name}", PASS if ok else FAIL, name)


def residual_excerpt(tensor) -> str | None:
    idx, value = first_nonzero(tensor)
    if idx is None:
        return None
    pos = ",".join(str(i + 1) for i in idx)
    return f"component ({pos}) = {value}"


def add_gated(report: Report, check_id, title, hypothesis, blocked, holds, engine, blocked_title) -> None:
    """Add the entry of a consequence of a hypothesis; the one place the gate
    discipline of ``conditions`` is applied.  Info titled ``blocked_title``
    with the reason ``blocked`` when that is set (a guard is zero, or the
    consequence is not drawn); else pass or fail by ``holds`` when the
    hypothesis residual is zero (``hypothesis`` true); else info with the
    engine's value."""
    if blocked:
        report.add(check_id, INFO, blocked_title, note=blocked)
    elif hypothesis:
        report.add(check_id, PASS if holds else FAIL, title, engine=engine)
    else:
        report.add(check_id, INFO, title, engine=engine, note="hypothesis residual nonzero; reported informationally")


# -- commands ---------------------------------------------------------------

# The command table, which both the argv reader and the --help text read.
# command -> (the module with its report code, which has a
# ``run(data, report, options)`` that adds the command's entries; its KIND
# values, or None when it takes no KIND; its options besides OPTIONS; its
# help lines).  An option maps to (its key in the options dict, its
# default, its value, its help): a value of None makes a flag, which
# stores True, a tuple lists the values it accepts, and any other value is
# the name the help text gives it.  A default of REQUIRED makes an option
# the command cannot run without.
REQUIRED = object()
OPTIONS = {
    "--json": ("json", False, None, "emit the report as JSON"),
    "--sample": ("sample", None, "x=2,y=2,z=2", "the point where the signature is checked"),
}
COMMANDS = {
    "check-lcs": (
        ".cmd_check_lcs",
        None,
        {},
        ("derive (alpha, rho, beta, phi, eta) and verify every", "structure axiom exactly"),
    ),
    "curvature": (
        ".cmd_curvature",
        None,
        {},
        ("connection, curvature, Ricci, scalar, Ricci operator,", "M-projective and concircular tables + self-checks"),
    ),
    "check": (
        ".cmd_check",
        RECURRENCE_KINDS,
        {"--forms": ("forms", REQUIRED, "F", "check: JSON file with 'A' and 'B' expression arrays")},
        ("test a recurrence condition (SGR | SGRR | SGPR) with", "1-forms A, B given in a JSON file"),
    ),
    "fit": (
        ".cmd_fit",
        RECURRENCE_KINDS[:2],
        {},
        ("solve exactly for recurrence 1-forms (SGR | SGRR);", "prints the forms or the first inconsistent component"),
    ),
    "soliton": (
        ".cmd_soliton",
        None,
        {
            "--V": ("V", "xi", ("xi",), "soliton: the soliton vector field, the structure field"),
            "--p": ("p", "0", "EXPR", "soliton: the conformal pressure (default: 0)"),
            "--lambda": ("lam", None, "EXPR", "soliton: the soliton scalar (default: derived)"),
        },
        (
            "conformal soliton residual; reports the published",
            "scalar lambda = p/2 + ((n+1)/n) alpha and the",
            "independently re-derived trace value side by side",
        ),
    ),
    "derived-conditions": (
        ".cmd_derived_conditions",
        None,
        {},
        ("action tensors R(xi,X).M and C(xi,X).S, their guards,", "and the gated Einstein conclusions"),
    ),
    "conformance": (
        ".cmd_conformance",
        None,
        {},
        ("full diff of engine values against the published", "tables for the reference manifold (example51 only)"),
    ),
}
USAGE = "usage: lcslab <command> [KIND] [<def.json>] [--json] [--sample x=2,y=2,z=2]"


def help_text() -> str:
    """What ``lcslab --help`` prints, from the command table."""
    lines = [
        USAGE,
        "       lcslab -h | --help | --version",
        "",
        "Exact curvature engine for framed Lorentzian manifolds.  <def.json> is a",
        "definition file or a built-in name (default: example51).",
        "",
        "commands:",
    ]
    options = dict(OPTIONS)
    for name, (_, kinds, own, summary) in COMMANDS.items():
        head = [name, *(["KIND"] if kinds else [])]
        head += [f"{option} {value}" for option, (_, default, value, _) in own.items() if default is REQUIRED]
        lines += [f"  {' '.join(head) if i == 0 else '':<20} {line}" for i, line in enumerate(summary)]
        options.update(own)
    lines += ["", "options:"]
    for option, (_, _, value, text) in options.items():
        shown = "" if value is None else " | ".join(value) if isinstance(value, tuple) else value
        lines.append(f"  {f'{option} {shown}'.strip():<20} {text}")
    return "\n".join(lines) + "\n"


# -- dispatch -----------------------------------------------------------------


def run(command: str, data: ManifoldData, options: dict) -> Report:
    if command not in COMMANDS:
        raise LoadError(f"unknown command {command!r}")
    report = Report(command=command, manifold=data.name)
    import_module(COMMANDS[command][0], __package__).run(data, report, options)
    return report


def _parse_sample(text: str | None) -> dict | None:
    if not text:
        return None
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise LoadError(f"bad --sample entry {quote_text(piece)}; use name=value")
        key, _, value = piece.partition("=")
        key = key.strip()
        if key in out:
            raise LoadError(f"--sample names coordinate {quote_text(key)} twice")
        out[key] = value.strip()
    return out


class UsageError(Exception):
    """A command line ``read_argv`` refuses: exit 2, after the usage line."""


HELP = ("-h", "--help")


def read_argv(argv) -> dict | str:
    """The options dict ``run`` receives for a command line, or the text that
    -h/--help or --version prints.

    The keys are "command", "definition" (default example51), "kind" for a
    command with a KIND, and the key of each option of the command and of
    ``OPTIONS``, holding its default when the option is not given.

    Before the command, -h/--help prints the help, --version prints the
    version, and any other token that starts with '-' is unrecognized; the
    first token that does not is the command.  After it, up to a '--':

    - -h or --help prints the help;
    - a token that names an option of the command or of ``OPTIONS``, in
      full, is that option: a flag stores True, and a value option takes the
      text after its '=', or else the next token whatever it is (``--lambda
      -1/z``) unless that is a '--'; the last value given wins;
    - any other token that starts with '--' is unrecognized;
    - every other token is a positional, wherever it stands.

    After a '--' every token is a positional.  The first positional is KIND
    for a command that takes one, the next <def.json>; any more are
    unrecognized.  Any other command line raises UsageError with one line
    that says what is wrong.
    """
    top = (*HELP, "--version")
    i = next((i for i, token in enumerate(argv) if token[:1] != "-"), len(argv))  # where the command stands
    for name, eq, value in (token.partition("=") for token in argv[:i]):
        if name in top:
            if eq:
                raise UsageError(f"argument {name}: ignored explicit argument {quote_text(value)}")
            return help_text() if name in HELP else f"lcslab {__version__}\n"
    if i == len(argv):
        raise UsageError("the following arguments are required: <command>")
    command = argv[i]
    if command not in COMMANDS:
        raise UsageError(f"invalid command {quote_text(command)} (choose from {', '.join(COMMANDS)})")
    _, kinds, own, _ = COMMANDS[command]
    options = {"command": command, "definition": "example51"}
    spec = {**OPTIONS, **own}
    options.update((key, default) for key, default, _, _ in spec.values() if default is not REQUIRED)
    extras = list(argv[:i])  # unknown options and positionals left over, refused at the end
    positionals = []
    rest = iter(argv[i + 1 :])
    for token in rest:
        name, eq, value = token.partition("=")
        if token == "--":
            positionals += rest
        elif name in HELP or name in spec:
            key, _, accepted, _ = spec.get(name, (None,) * 4)  # -h/--help: no key, no value
            if accepted is None:
                if eq:
                    raise UsageError(f"argument {name}: ignored explicit argument {quote_text(value)}")
                if key is None:
                    return help_text()
                value = True
            elif not eq:
                value = next(rest, "--")  # the end of argv refuses as a '--' does
                if value == "--":
                    raise UsageError(f"argument {name}: expected one argument")
            if isinstance(accepted, tuple) and value not in accepted:
                raise UsageError(f"argument {name}: invalid choice {quote_text(value)} (choose from {', '.join(accepted)})")
            options[key] = value
        elif token.startswith("--"):
            extras.append(token)
        else:
            positionals.append(token)
    names = ["kind", "definition"] if kinds else ["definition"]
    if kinds and positionals and positionals[0] not in kinds:
        raise UsageError(f"invalid KIND {quote_text(positionals[0])} (choose from {', '.join(kinds)})")
    options.update(zip(names, positionals))
    extras += positionals[len(names) :]
    missing = ["KIND"] if kinds and not positionals else []
    missing += [option for option, (key, *_) in spec.items() if key not in options]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(map(quote_text, extras))}")
    return options


def main(argv=None) -> int:
    if argv is not None:
        return _main(argv)
    # the process ends with this command (module docstring)
    gc.disable()
    code = _main(sys.argv[1:])
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a full disk, a closed pipe or stream: end as without os._exit
        return code  # the interpreter's exit retries the flush and reports its failure
    os._exit(code)


def _main(argv) -> int:
    try:
        options = read_argv(argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}\nlcslab: error: {exc}\n")
        return 2
    if isinstance(options, str):  # -h/--help or --version
        sys.stdout.write(options)
        return 0
    try:
        sample = _parse_sample(options["sample"])
        defn = load(options["definition"], sample)
        data = build_manifold(defn)
        report = run(options["command"], data, options)
        text = report.to_json() if options["json"] else report.to_text()
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault: exit 1 keeps meaning "a check failed"
        print(f"internal error: {type(exc).__name__}: {quote_text(str(exc))}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    # under `python -m lcslab.cli` the command modules' `from . import cli`
    # must find this module, not import a second copy of it
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
