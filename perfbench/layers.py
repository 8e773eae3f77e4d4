"""In-process traced run: per-layer self times and counters.

Nothing under ``src/lcslab`` is instrumented.  The benchmark installs
wrappers at run time around the public calls into each module, runs the
workload's ops in-process (a fresh ``ManifoldData`` per op, built through
``cli.load`` and ``cli.build_manifold``, then ``cli.run``), and restores
every wrapped name afterwards.

Whole rounds of ops run three ways:

* untraced: no wrappers; the in-process baseline for ``trace.overhead_frac``;
* spans: one span per layer call (name, start, end, parent span, op id),
  kept in memory; a layer's self time is its duration minus the part its
  child spans cover.  Untraced and traced rounds alternate;
* counters, one round: ``Expr`` constructions, GCD calls and fallbacks,
  kernel calls and busy time.  They run in their own pass so that their
  cost does not inflate the span self times.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from collections import Counter, defaultdict

from checks import gate

STAGES = ("brackets", "connection", "stack", "nabla_ricci", "nabla_riemann", "m_projective", "concircular", "structure")
SPAN_LAYERS = (
    "cli.load",
    "cli.report",
    *(f"stage.{s}" for s in STAGES),
    "check.self_check",
    "check.axioms",
    "conditions.fit",
    "conditions.residual",
    "conditions.derived",
    "conditions.soliton",
)
KERNELS = ("poly_mul", "poly_divexact", "poly_lead")
TIMED_KERNELS = ("poly_mul", "poly_divexact")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Spans:
    """Span records [name, start, end, parent index, op id], in memory."""

    def __init__(self):
        self.records: list[list] = []
        self.open: list[int] = []
        self.stages: list[str] = []  # open stage spans, innermost last
        self.op_id = None

    def wrap(self, name, fn):
        records, open_, stages = self.records, self.open, self.stages
        is_stage = name.startswith("stage.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(records)
            records.append([name, time.perf_counter(), None, open_[-1] if open_ else None, self.op_id])
            open_.append(index)
            if is_stage:
                stages.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if is_stage:
                    stages.pop()
                open_.pop()
                records[index][2] = time.perf_counter()

        return wrapper

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.records, covered):
            out[name] += end - start - child
        return out

    def as_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o} for n, s, e, p, o in self.records
        ]


class Counters:
    """Scalar-layer and kernel-layer counts for one pass."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.expr_new = 0
        self.expr_zero = 0
        self.max_terms = 0
        self.stage_new: Counter = Counter()
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.gcd_fallbacks = 0
        self._gcd_open = False

    def note_expr(self, e):
        self.expr_new += 1
        if not e.num:
            self.expr_zero += 1
        terms = len(e.num) + len(e.den)
        if terms > self.max_terms:
            self.max_terms = terms
        if self.spans.stages:
            self.stage_new[self.spans.stages[-1]] += 1

    def counted(self, key, fn):
        calls = self.calls

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def timed(self, key, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                busy[key] += clock() - start
                calls[key] += 1

        return wrapper

    def gcd(self, fn):
        timed = self.timed("poly_gcd", fn)

        def wrapper(*args):
            self._gcd_open = True
            try:
                return timed(*args)
            finally:
                self._gcd_open = False

        return wrapper

    def gcd_rec(self, fn):
        # poly_gcd reaches the subresultant _gcd_rec only after _heu_gcd
        # gave up; later (recursive) entries belong to that same fallback
        def wrapper(*args):
            if self._gcd_open:
                self._gcd_open = False
                self.gcd_fallbacks += 1
            return fn(*args)

        return wrapper


def _install_spans(spans: Spans, patches: Patches, lcslab_modules) -> None:
    cli, manifold, curvature, conditions, lcs_structure = lcslab_modules
    data_class = manifold.ManifoldData
    for stage in STAGES:
        prop = functools.cached_property(spans.wrap(f"stage.{stage}", vars(data_class)[stage].func))
        prop.__set_name__(data_class, stage)
        patches.set(data_class, stage, prop)
    # check-lcs and conformance derive the structure outside the cache
    for module in (cli, lcs_structure):
        patches.set(module, "derive_structure", spans.wrap("stage.structure", module.derive_structure))
    stack_class = curvature.CurvatureStack
    patches.set(stack_class, "self_check", spans.wrap("check.self_check", vars(stack_class)["self_check"]))
    patches.set(cli, "verify_axioms", spans.wrap("check.axioms", cli.verify_axioms))
    patches.set(cli, "recurrence_fit", spans.wrap("conditions.fit", cli.recurrence_fit))
    for module in (cli, conditions):
        patches.set(module, "recurrence_residual", spans.wrap("conditions.residual", module.recurrence_residual))
    for name in ("derived_condition_residuals", "nabla_r_xi_identity"):
        patches.set(cli, name, spans.wrap("conditions.derived", getattr(cli, name)))
    patches.set(cli, "soliton_residual", spans.wrap("conditions.soliton", cli.soliton_residual))
    patches.set(cli.Report, "to_json", spans.wrap("cli.report", vars(cli.Report)["to_json"]))


def _install_counters(counters: Counters, patches: Patches, symexpr, polyops, poly_py) -> None:
    expr = symexpr.Expr
    init = vars(expr)["__init__"]
    raw = vars(expr)["_raw"].__func__

    def counted_init(self, variables, num, den):
        init(self, variables, num, den)
        counters.note_expr(self)

    def counted_raw(cls, variables, num, den):
        e = raw(cls, variables, num, den)
        counters.note_expr(e)
        return e

    patches.set(expr, "__init__", counted_init)
    patches.set(expr, "_raw", classmethod(counted_raw))
    patches.set(polyops, "poly_gcd", counters.gcd(polyops.poly_gcd))
    patches.set(polyops, "_gcd_rec", counters.gcd_rec(polyops._gcd_rec))
    for name in KERNELS:
        wrap = counters.timed if name in TIMED_KERNELS else counters.counted
        patches.set(polyops, name, wrap(name, getattr(polyops, name)))
        if poly_py is not None:
            # calls the pure kernels make to each other (poly_divexact -> poly_lead)
            patches.set(poly_py, name, wrap(name, getattr(poly_py, name)))


class TracedRun:
    """Runs whole rounds of ops in-process and gates every report."""

    def __init__(self, golden, order, backend):
        from lcslab import _poly_py, cli, conditions, curvature, lcs_structure, manifold, polyops, symexpr

        self.golden = golden or {}
        self.order = order  # round index -> list of ops
        self.cli = cli
        self.lcslab_modules = (cli, manifold, curvature, conditions, lcs_structure)
        self.scalar_modules = (symexpr, polyops, _poly_py if backend == "python" else None)
        self.attempted = 0
        self.failures: list[str] = []

    def _op(self, op, load):
        report = self.cli.run(op.command, load(op.definition), op.options())
        text = report.to_json()
        return report, text

    def _rounds(self, first, count, spans: Spans | None) -> list[float]:
        """Run rounds first..first+count-1; returns each one's summed op time (s)."""
        cli = self.cli

        def load(path):
            return cli.build_manifold(cli.load(path))

        run_op = self._op
        if spans is not None:
            load = spans.wrap("cli.load", load)
            run_op = spans.wrap("op", run_op)
        totals = []
        for r in range(first, first + count):
            total = 0.0
            for op in self.order(r):
                gc.collect()
                if spans is not None:
                    spans.op_id = f"{r}:{op.id}"
                self.attempted += 1
                start = time.perf_counter()
                try:
                    report, text = run_op(op, load)
                except Exception as exc:  # an engine crash is a failed op, not a harness crash
                    self.failures.append(f"{op.id}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    total += time.perf_counter() - start
                reason = gate(op, report.exit_code, text.encode(), b"", self.golden.get(op.id))
                if reason:
                    self.failures.append(f"{op.id}: {reason}")
            totals.append(total)
        return totals

    def run(self, seconds: float) -> tuple[dict, Spans]:
        # untraced and traced rounds alternate, so drift in machine speed
        # falls on both sides of trace.overhead_frac alike
        spans = Spans()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds * 2 / 3:
            untraced += self._rounds(len(traced), 1, None)
            patches = Patches()
            _install_spans(spans, patches, self.lcslab_modules)
            try:
                traced += self._rounds(len(traced), 1, spans)
            finally:
                patches.undo()

        counters = Counters(Spans())
        patches = Patches()
        _install_spans(counters.spans, patches, self.lcslab_modules)
        _install_counters(counters, patches, *self.scalar_modules)
        try:
            self._rounds(0, 1, counters.spans)
        finally:
            patches.undo()
        return self._metrics(spans, counters, len(traced), untraced, traced), spans

    @staticmethod
    def _metrics(spans, counters, rounds, untraced, traced) -> dict:
        own = spans.self_times()
        m = {}
        for name in SPAN_LAYERS:
            m[f"{name}.ms"] = own.get(name, 0.0) * 1e3 / rounds
        for stage in STAGES:
            m[f"stage.{stage}.expr_new"] = counters.stage_new[f"stage.{stage}"]
        m["symexpr.expr_new"] = counters.expr_new
        m["symexpr.expr_zero_frac"] = counters.expr_zero / max(counters.expr_new, 1)
        m["symexpr.max_terms"] = counters.max_terms
        calls, busy = counters.calls, counters.busy
        m["polyops.poly_gcd.calls"] = calls["poly_gcd"]
        m["polyops.poly_gcd.ms"] = busy["poly_gcd"] * 1e3
        m["polyops.poly_gcd.fallback_frac"] = counters.gcd_fallbacks / max(calls["poly_gcd"], 1)
        for name in KERNELS:
            m[f"kernels.{name}.calls"] = calls[name]
        for name in TIMED_KERNELS:
            m[f"kernels.{name}.ms"] = busy[name] * 1e3
        op_time = sum(r[2] - r[1] for r in spans.records if r[0] == "op")
        m["trace.coverage"] = (op_time - own.get("op", 0.0)) / op_time
        m["trace.overhead_frac"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1
        return m
