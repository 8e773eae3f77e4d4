from __future__ import annotations

import argparse
import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import lcslab
from lcslab.axioms import AxiomCheck
from lcslab.cli import RECURRENCE_KINDS, ManifoldDef, build_manifold, load
from lcslab.conditions import NoSolution, RecurrenceForms, _recurrence_terms
from lcslab.frame_geometry import FrameTensor, VectorField, combo, dot, vec_add, vec_scale, vec_sub, vec_sum
from lcslab.levi_civita import cov_deriv_tensor, lie_derivative_metric
from lcslab.manifold import ManifoldData
from lcslab.symexpr import Expr

SRC = Path(lcslab.__file__).parents[1]  # where the lcslab under test lives

# selected by `--hypothesis-profile=mutants`, as tests/mutants.py runs its
# children: a failing example still fails its test but is not shrunk, the
# phase that takes most of a mutant's time when it breaks a property test
settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])

LORENTZ_DIAG = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1"))


@lru_cache(maxsize=None)
def builtin(name: str) -> ManifoldData:
    """A bundled manifold, loaded as the CLI loads it."""
    return build_manifold(load(name))


def make_manifold(name: str, frame_rows, xi_index: int = 2, metric_rows=LORENTZ_DIAG) -> ManifoldData:
    """An ad hoc 3-D frame through the CLI's parse, validation and signature check."""
    return build_manifold(ManifoldDef(name, ["x", "y", "z"], frame_rows, metric_rows, xi_index + 1))


# E_1 = f(z)(a d_x + b d_y), E_2 = f(z) c d_y, E_3 = d_z with a, b, c free of
# z, each a warped product with alpha = -f'/f and xi = E_3
WARP_FACTORS = ["z", "z^2", "2*z + 1", "z^2 + 1", "1/z"]
WARP_CELLS = ["1", "2", "-1", "x", "y", "x + 1", "x*y", "y^2 + 1"]


def warped_frames(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        f, c = rng.choice(WARP_FACTORS), WARP_CELLS
        a, b, d = (rng.choice(c) for _ in range(3))
        rows = [[f"({f})*({a})", f"({f})*({b})", "0"], ["0", f"({f})*({d})", "0"], ["0", "0", "1"]]
        yield make_manifold(f"warped{k}", rows)


@lru_cache(maxsize=None)
def milne(n: int) -> ManifoldData:
    """The Milne universe -dt^2 + t^2 g_H at n = 3 or 4: hyperbolic space in
    the upper half-space frame (E_i = (x_(n-1)/t) d_i), warped by f = t,
    with xi = E_n = d_t.  A flat (LCS)_n: alpha = 1/t, rho = 1/t^2, so
    alpha^2 - rho = 0, and R = 0."""
    coords = ["x", "y", "z"][: n - 1] + ["t"]
    cell = f"{coords[n - 2]}/t"
    frame = [[cell if j == i else "0" for j in range(n)] for i in range(n - 1)] + [["0"] * (n - 1) + ["1"]]
    metric = [["-1" if i == j == n - 1 else str(int(i == j)) for j in range(n)] for i in range(n)]
    return build_manifold(ManifoldDef(f"milne{n}", coords, frame, metric, n))


def milne_forms(data: ManifoldData) -> RecurrenceForms:
    """A = (1, ..., 1, 1/t) and B = 0: the SGR forms of every flat input,
    whose R and nabla R vanish, with A(xi) nonzero."""
    chart, n = data.chart, data.dim
    return RecurrenceForms(tuple(chart.one() for _ in range(n - 1)) + (chart.parse("1/t"),), (chart.zero(),) * n)


# Ad hoc inputs (coordinates, frame rows, metric rows; xi is the last frame
# field) that reach every branch of the tensor supports:
# "dense-style" has an upper-triangular frame with two-term polynomial cells
# and a non-constant metric entry, like the benchmark's dense workload;
# "off-diagonal" has a constant g[0][1], and four leaves each of M and C are
# nonzero only through it (the g[y][z] terms of their supports);
# in "bracket-only", R(E_1,E_3)E_2 and R(E_3,E_1)E_2 are nonzero only through
# the bracket term of the Riemann support: E_2 is parallel along E_1 and E_3,
# but not along their bracket.
AD_HOC = {
    "dense-style": (
        ("x", "y", "z"),
        (("2", "x - 3*z", "2*y + 1"), ("0", "-3", "z + 2*x"), ("0", "0", "1")),
        (("1", "0", "0"), ("0", "4 + y", "0"), ("0", "0", "-1")),
    ),
    "off-diagonal": (
        ("x", "y", "z"),
        (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "x")),
        (("1", "1", "0"), ("1", "3", "0"), ("0", "0", "-1")),
    ),
    "bracket-only": (
        ("x", "y", "z", "t"),
        (("1", "0", "0", "0"), ("0", "1", "0", "0"), ("0", "0", "1", "z*x"), ("0", "0", "0", "y")),
        (("1", "0", "0", "0"), ("0", "1", "0", "0"), ("0", "0", "1", "0"), ("0", "0", "0", "-1")),
    ),
}


def ad_hoc(name: str) -> ManifoldData:
    """A fresh ManifoldData for one of AD_HOC."""
    coords, frame_rows, metric_rows = AD_HOC[name]
    return build_manifold(ManifoldDef(name, list(coords), frame_rows, metric_rows, len(coords)))


def xi_at_every_index():
    """Inputs with xi at every frame index (each built-in has xi last):
    dense-style with xi = E_k for each k, then example51 under each of the
    six orders of its frame fields, each carrying example51's structure."""
    dense = ad_hoc("dense-style")
    yield from (ManifoldData("dense-style", dense.frame, dense.metric, k) for k in range(dense.dim))
    rows = (("z*x", "z*y", "0"), ("0", "z", "0"), ("0", "0", "1"))
    for order in itertools.permutations(range(3)):
        metric = [["0"] * 3 for _ in range(3)]
        for i, o in enumerate(order):
            metric[i][i] = "-1" if o == 2 else "1"
        yield make_manifold(f"example51-{order}", [rows[o] for o in order], order.index(2), metric)


def frame_field(frame, comps) -> VectorField:
    """The coordinate vector field sum_i comps_i E_i."""
    return VectorField(frame.chart, combo(comps, lambda i: frame.fields[i].coeffs))


def lie_xi(data: ManifoldData) -> FrameTensor:
    """L_xi g of ``data``, xi = E_k with k = ``data.xi_index``, as ``soliton`` forms it."""
    return lie_derivative_metric(data.frame, data.metric, data.brackets, data.xi_index)


def cov_deriv_vector(conn, x, y):
    """Frame components of nabla_X Y for frame-component inputs, from its
    definition: sum_i X^i (E_i(Y^j) E_j + Y^j nabla_i E_j)."""
    fields = conn.frame.fields

    def along(i):
        return vec_add(tuple(fields[i].apply(c) for c in y), combo(y, lambda j: conn.gamma[i][j]))

    return combo(x, along)


def gather_cov_deriv_tensor(tensor, ops, fields, where=None, pairwise=False):
    """The derivation of ``levi_civita.derivation`` by the gather formula, with
    a slot term ops[w][i][a] times T at slot value a for every a; ``fields``
    None means no derivative term.  Each component is one ``vec_sum`` of the
    derivative term, the output-vector terms and the slot terms, as the
    shipped derivation sums it; with ``pairwise`` the terms are instead folded
    with ``+``/``-`` (through ``combo``), one partial sum at a time.  It is
    evaluated at every index, or only at the (w, *idx) where ``where`` holds;
    elsewhere, and at any w without a row of ``ops``, the leaf is T's zero
    leaf, returned without arithmetic."""
    r, s = tensor.valence
    zero = tensor.zero if r else (tensor.zero,)

    def value(idx):
        leaf = tensor.comp(*idx)
        return leaf if r else (leaf,)

    def entry(w, *idx):
        if w >= len(ops) or where is not None and not where(w, *idx):
            return tensor.zero
        base = value(idx)
        derivative = tuple(fields[w].apply(c) for c in base) if fields else zero
        if pairwise:
            val = derivative
            if r:
                val = vec_add(val, combo(base, lambda a: ops[w][a]))
            for k, i in enumerate(idx):
                val = vec_sub(val, combo(ops[w][i], lambda a: value(idx[:k] + (a,) + idx[k + 1 :])))
        else:
            terms = [(1, derivative)]
            if r:
                terms += [(1, vec_scale(c, ops[w][a])) for a, c in enumerate(base)]
            for k, i in enumerate(idx):
                terms += [(-1, vec_scale(c, value(idx[:k] + (a,) + idx[k + 1 :]))) for a, c in enumerate(ops[w][i])]
            val = vec_sum(zero[0].vars, terms)
        return val if r else val[0]

    return FrameTensor.build((r, s + 1), tensor.dim, entry)


def pairwise_riemann(conn, brackets):
    """R(E_i,E_j)E_k folded with ``+``/``-``, one partial sum at a time:
    nabla_i (gamma_jk) - nabla_j (gamma_ik) - sum_a [E_i,E_j]^a gamma_ak, each
    covariant derivative through ``cov_deriv_vector``, at every index."""
    n = conn.dim
    gamma = conn.gamma
    unit = [conn.frame.unit(i) for i in range(n)]

    def entry(i, j, k):
        first = cov_deriv_vector(conn, unit[i], gamma[j][k])
        second = cov_deriv_vector(conn, unit[j], gamma[i][k])
        return vec_sub(vec_sub(first, second), combo(brackets[i][j], lambda a: gamma[a][k]))

    return FrameTensor.build((1, 3), n, entry)


def fit_rows(data: ManifoldData, kind, w: int):
    """The rows (p, q, lhs) of direction w of the recurrence fit, with the
    index of each: the leaf components of the condition at every index, in
    ``itertools.product`` order of the leaf, then of a vector leaf's
    component u, read through each tensor's ``comp``."""
    n = data.dim
    lhs, p, q = _recurrence_terms(data, kind)
    leaves = list(itertools.product(range(n), repeat=p.valence[1]))
    if not p.valence[0]:
        return [(p.comp(*idx), q.comp(*idx), lhs.comp(w, *idx)) for idx in leaves], leaves
    rows = [row for idx in leaves for row in zip(p.comp(*idx), q.comp(*idx), lhs.comp(w, *idx))]
    return rows, [idx + (u,) for idx in leaves for u in range(n)]


def reference_solve(rows):
    """The two-unknown solve with its own row check: the pivot solution,
    then each row checked as p u + q v - rhs; returns ((u, v), None), or
    (None, k) for the first row k that fails."""
    zero = Expr.zero(rows[0][2].vars)
    pivot1 = next((row for row in rows if not row[0].is_zero or not row[1].is_zero), None)
    if pivot1 is None:
        bad = next((k for k, row in enumerate(rows) if not row[2].is_zero), None)
        return ((zero, zero), None) if bad is None else (None, bad)
    p1, q1, r1 = pivot1
    pivot2 = next((row for row in rows if not (p1 * row[1] - row[0] * q1).is_zero), None)
    if pivot2 is None:  # rank one: the unknown the pivot row does not need is zero
        u, v = (r1 / p1, zero) if not p1.is_zero else (zero, r1 / q1)
    else:
        p2, q2, r2 = pivot2
        det = p1 * q2 - p2 * q1
        u, v = (r1 * q2 - r2 * q1) / det, (p1 * r2 - p2 * r1) / det
    bad = next((k for k, (p, q, r) in enumerate(rows) if not (p * u + q * v - r).is_zero), None)
    return ((u, v), None) if bad is None else (None, bad)


def reference_fit(data: ManifoldData, kind):
    """A model of ``conditions.recurrence_fit`` that forms no residual:
    per direction, ``reference_solve`` over ``fit_rows``; the first failing
    row is the NoSolution witness, with the detail chosen from its p and q."""
    solutions = []
    for w in range(data.dim):
        rows, index = fit_rows(data, kind, w)
        sol, bad = reference_solve(rows)
        if sol is None:
            p, q, rhs = rows[bad]
            if p.is_zero and q.is_zero:
                detail = f"the condition forces 0 = {rhs}"
            else:
                detail = "no values of the forms satisfy this component together with the others"
            return NoSolution(w, index[bad], rhs, detail)
        solutions.append(sol)
    return RecurrenceForms(*zip(*solutions))


def reference_verify_axioms(data: ManifoldData, structure):
    """A model of ``axioms.verify_axioms`` written as one index loop per
    axiom: each builds its whole residual list, in the order of its nested
    loops, and ``record`` reports the first nonzero entry."""
    frame = data.frame
    metric = data.metric
    chart = data.chart
    n = data.dim
    st = structure
    gamma = data.connection.gamma
    unit = [frame.unit(i) for i in range(n)]
    checks: list[AxiomCheck] = []

    def record(axiom, description, residuals, detail=""):
        bad = next((r for r in residuals if not r.is_zero), None)
        checks.append(
            AxiomCheck(axiom, description, detail if bad is None else f"residual {bad}")
        )

    record("xi-unit-timelike", "g(xi, xi) = -1", [metric.pair(st.xi, st.xi) + 1])
    record(
        "eta-metric-dual",
        "g(X, xi) = eta(X)",
        [metric.pair(unit[i], st.xi) - st.eta[i] for i in range(n)],
    )

    res = []
    for i in range(n):
        for j in range(n):
            nab_eta = frame.fields[i].apply(st.eta[j]) - st.eta_of(gamma[i][j])
            res.append(nab_eta - st.alpha * (metric.g[i][j] + st.eta[i] * st.eta[j]))
    description = "nabla eta = alpha(g + eta x eta), alpha nonzero"
    if st.alpha.is_zero:
        checks.append(AxiomCheck("eta-covariant-derivative", description, "alpha = 0"))
    else:
        record("eta-covariant-derivative", description, res)

    record(
        "alpha-gradient",
        "d(alpha) = rho eta with rho = -xi(alpha)",
        [frame.fields[i].apply(st.alpha) - st.rho * st.eta[i] for i in range(n)],
    )
    record(
        "rho-gradient",
        "d(rho) = beta eta",
        [frame.fields[i].apply(st.rho) - st.beta * st.eta[i] for i in range(n)],
    )

    res = []
    for i in range(n):
        shape = vec_add(unit[i], vec_scale(st.eta[i], st.xi))
        res.extend(a - b for a, b in zip(st.phi.comp(i), shape))
    record("phi-shape", "phi X = X + eta(X) xi", res)

    res = []
    for i in range(n):
        sq = st.phi_of(st.phi.comp(i))
        shape = vec_add(unit[i], vec_scale(st.eta[i], st.xi))
        res.extend(a - b for a, b in zip(sq, shape))
    record("phi-square", "phi^2 = I + eta x xi", res)

    res = [st.eta_of(st.xi) + 1]
    res.extend(st.phi_of(st.xi))
    res.extend(st.eta_of(st.phi.comp(i)) for i in range(n))
    record("phi-xi-relations", "eta(xi) = -1, phi xi = 0, eta(phi X) = 0", res)

    res = []
    for i in range(n):
        for j in range(n):
            lhs = metric.pair(st.phi.comp(i), st.phi.comp(j))
            res.append(lhs - metric.g[i][j] - st.eta[i] * st.eta[j])
    record("phi-isometry", "g(phi X, phi Y) = g(X,Y) + eta(X) eta(Y)", res)

    nabla_phi = cov_deriv_tensor(data.connection, st.phi)
    res = []
    for i in range(n):
        for j in range(n):
            lhs = nabla_phi.comp(i, j)
            rhs_scalar = metric.g[i][j] + 2 * (st.eta[i] * st.eta[j])
            rhs = vec_scale(st.alpha * rhs_scalar, st.xi)
            rhs = vec_add(rhs, vec_scale(st.alpha * st.eta[j], unit[i]))
            res.extend(a - b for a, b in zip(lhs, rhs))
    record("phi-covariant-derivative", "(nabla_X phi)Y = alpha{g(X,Y)xi + 2eta(X)eta(Y)xi + eta(Y)X}", res)

    k2 = st.alpha * st.alpha - st.rho
    riem = data.stack.riemann13
    res = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = st.eta_of(riem.comp(i, j, k))
                res.append(lhs - k2 * (metric.g[j][k] * st.eta[i] - metric.g[i][k] * st.eta[j]))
    record("eta-of-curvature", "eta(R(X,Y)Z) = (alpha^2-rho){g(Y,Z)eta(X) - g(X,Z)eta(Y)}", res)

    res = []
    for i in range(n):
        for j in range(n):
            vec = combo(st.xi, lambda a: riem.comp(i, j, a))
            rhs = vec_sub(vec_scale(k2 * st.eta[j], unit[i]), vec_scale(k2 * st.eta[i], unit[j]))
            res.extend(a - b for a, b in zip(vec, rhs))
    record("curvature-into-xi", "R(X,Y)xi = (alpha^2-rho){eta(Y)X - eta(X)Y}", res)

    res = []
    for j in range(n):
        for k in range(n):
            vec = combo(st.xi, lambda a: riem.comp(a, j, k))
            rhs = vec_sub(vec_scale(k2 * metric.g[j][k], st.xi), vec_scale(k2 * st.eta[k], unit[j]))
            res.extend(a - b for a, b in zip(vec, rhs))
    record("curvature-from-xi", "R(xi,X)Y = (alpha^2-rho){g(X,Y)xi - eta(Y)X}", res)

    ric = data.stack.ricci
    res = []
    for i in range(n):
        lhs = dot(st.xi, [ric.comp(i, j) for j in range(n)])
        res.append(lhs - chart.const(n - 1) * k2 * st.eta[i])
    record("ricci-into-xi", "S(X, xi) = (n-1)(alpha^2-rho) eta(X)", res)

    return checks


def reference_arg_parser() -> argparse.ArgumentParser:
    """A model of ``cli.read_argv``: the argparse parser the CLI used before
    it read argv from its command table.  ``vars`` of what it parses is the
    options dict the reader must give.  On a line it refuses and the reader
    accepts (a positional after an option, a value option's next token that
    starts with '-'), the reader must give ``vars`` of its parse of the same
    line spelt with each option joined to its value and the positionals
    after a '--'.  It also accepts unique abbreviations of an option, which the
    reader does not."""
    parser = argparse.ArgumentParser(prog="lcslab", description="Exact curvature engine for framed Lorentzian manifolds")
    parser.add_argument("--version", action="version", version=f"lcslab {lcslab.__version__}")
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
    p.add_argument("--p", default="0", help="conformal pressure expression")
    p.add_argument("--lambda", dest="lam", default=None, help="soliton scalar expression (default: derived)")

    add_common(sub.add_parser("derived-conditions", help="action tensors, guards, and gated conclusions"))
    add_common(sub.add_parser("conformance", help="diff engine values against the published tables"))
    return parser


@pytest.fixture(scope="session")
def example51() -> ManifoldData:
    return builtin("example51")


@pytest.fixture(scope="session")
def flat3() -> ManifoldData:
    return builtin("flat3")


@pytest.fixture(scope="session")
def desitter3() -> ManifoldData:
    return builtin("desitter3")
