"""The ``conformance`` report.

It diffs every engine-derived quantity of the bundled reference manifold
against the published component tables it was transcribed from; any other
manifold (another frame, metric or xi, under any name) is refused as a load
error, since the tables describe only it.  Where the two disagree, the
report carries both values with status ``mismatch``; engine values are the
ones validated by the structural self-checks, and all downstream computation
uses them.
"""

from __future__ import annotations

from . import cli
from .builtin_manifolds import builtin
from .cli import FAIL, INFO, MISMATCH, PASS, LoadError, Report, add_self_checks, format_vector
from .manifold import ManifoldData
from .symexpr import Expr

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


BETA_NOTE = "no published value; the proportionality convention mirrors the one for rho"
RICCI_NOTE = (
    "engine value validated by direct contraction of the engine curvature tensor "
    "and exact rational evaluation; downstream checks use it"
)


def run(data: ManifoldData, report: Report, options: dict) -> None:
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

    # one row per published value: (check id, title, engine value, published
    # text, texts of a vector, value or None, status and note when the two
    # differ)
    riem, ric = data.stack.riemann13, data.stack.ricci
    st = data.structure
    rows = [
        *(
            (f"bracket.{i + 1}{j + 1}", f"[E{i + 1},E{j + 1}]", data.brackets[i][j], texts, MISMATCH, None)
            for (i, j), texts in sorted(PUBLISHED_BRACKETS.items())
        ),
        *(
            (f"connection.{i + 1}{j + 1}", f"nabla_E{i + 1} E{j + 1}", data.connection.gamma[i][j], texts, MISMATCH, None)
            for (i, j), texts in sorted(PUBLISHED_CONNECTION.items())
        ),
        *(
            (f"riemann.{i + 1}{j + 1}{k + 1}", f"R(E{i + 1},E{j + 1})E{k + 1}", riem.comp(i, j, k), texts, MISMATCH, None)
            for (i, j, k), texts in sorted(PUBLISHED_CURVATURE.items())
        ),
        ("structure.alpha", "alpha", st.alpha, PUBLISHED_ALPHA, MISMATCH, None),
        ("structure.rho", "rho", st.rho, PUBLISHED_RHO, MISMATCH, None),
        ("structure.beta", "beta from d(rho) = beta eta", st.beta, None, INFO, BETA_NOTE),
        *((f"structure.phi.{i + 1}", f"phi E{i + 1}", st.phi.comp(i), texts, MISMATCH, None) for i, texts in sorted(PUBLISHED_PHI.items())),
        ("structure.eta-xi", "eta(E3) = -1", st.eta_of(st.xi), chart.const(-1), FAIL, None),
        *(
            (f"ricci.{i + 1}{j + 1}", f"S(E{i + 1},E{j + 1})", ric.comp(i, j), text, MISMATCH, RICCI_NOTE)
            for (i, j), text in sorted(PUBLISHED_RICCI.items())
        ),
    ]
    for check_id, title, engine, published, differ, note in rows:
        if published is None:
            status = INFO
        elif isinstance(published, tuple):  # a vector: both sides as format_vector prints them
            vector = tuple(map(pub, published))
            status = PASS if tuple(engine) == vector else differ
            engine, published = format_vector(engine), format_vector(vector)
        else:  # a published text, or the value the structure defines
            status = PASS if engine == (published if isinstance(published, Expr) else pub(published)) else differ
            published = str(published)
        report.add(check_id, status, title, engine=str(engine), published=published, note=None if status == PASS else note)

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
    fit = cli.recurrence_fit(data, "SGRR")
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

    axiom_checks = cli.verify_axioms(data, st)
    bad = [c for c in axiom_checks if c.detail]
    report.add(
        "axioms",
        PASS if not bad else FAIL,
        f"structure axioms ({len(axiom_checks)} checks)",
        note=None if not bad else "; ".join(c.axiom for c in bad),
    )
