"""Concircular-structure extraction, axiom verification, and classification.

Given a framed Lorentzian manifold and a designated unit timelike frame
field xi, this module extracts the structure data (xi, eta, phi, alpha,
rho, beta):

  - alpha is the unique scalar with nabla_X xi = alpha (X + eta(X) xi),
    required consistently across ALL frame directions;
  - rho = -xi(alpha), which must satisfy d(alpha) = rho * eta;
  - beta is the scalar with d(rho) = beta * eta.  The source material never
    defines beta; this proportionality convention mirrors the one for rho,
    and the downstream identity checker also reports the sign-flipped
    alternative if only the sign fails.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .frame_geometry import FrameMetric, FrameTensor, combo, dot, vec_add, vec_scale, vec_sub
from .levi_civita import cov_deriv_tensor
from .manifold import ManifoldData
from .symexpr import Expr


class NotLcsError(Exception):
    """The designated field does not induce a concircular structure."""


class LcsStructure(NamedTuple):
    xi: tuple[Expr, ...]
    eta: tuple[Expr, ...]
    phi: FrameTensor
    alpha: Expr
    rho: Expr
    beta: Expr

    def eta_of(self, v) -> Expr:
        return dot(self.eta, v)

    def phi_of(self, v) -> tuple[Expr, ...]:
        return combo(v, self.phi.comp)


def _solve_proportionality(values, reference, what: str) -> Expr:
    """The unique scalar s with values_i = s * reference_i for all i."""
    s = None
    for val, ref in zip(values, reference):
        if ref.is_zero:
            if not val.is_zero:
                raise NotLcsError(f"{what}: component {val} has no matching direction")
            continue
        cand = val / ref
        if s is None:
            s = cand
        elif s != cand:
            raise NotLcsError(f"{what}: inconsistent scalars {s} and {cand}")
    if s is None:
        raise NotLcsError(f"{what}: reference form vanishes identically")
    return s


def derive_structure(data: ManifoldData, xi_index: int) -> LcsStructure:
    """The structure data of xi; alpha may be identically zero (flat space),
    which ``ManifoldData.structure`` refuses and ``check-lcs`` reports."""
    frame = data.frame
    metric = data.metric
    chart = data.chart
    n = data.dim

    xi = frame.unit(xi_index)
    norm = metric.pair(xi, xi)
    if norm != chart.const(-1):
        raise NotLcsError(f"designated field is not unit timelike: g(xi,xi) = {norm}")
    eta = metric.lower(xi)

    # alpha from nabla_X xi = alpha (X + eta(X) xi), over every frame X
    gamma = data.connection.gamma
    alpha = None
    targets = []
    for i in range(n):
        nab = gamma[i][xi_index]
        target = vec_add(frame.unit(i), vec_scale(eta[i], xi))
        targets.append(target)
        if all(t.is_zero for t in target):
            if not all(v.is_zero for v in nab):
                raise NotLcsError("nabla xi does not vanish along the degenerate direction")
            continue
        cand = _solve_proportionality(nab, target, f"alpha along direction {i}")
        if alpha is None:
            alpha = cand
        elif alpha != cand:
            raise NotLcsError(f"no consistent alpha: {alpha} vs {cand} along direction {i}")
    if alpha is None:
        raise NotLcsError("alpha is undetermined: every comparison direction degenerated")

    # phi from (1/alpha) nabla xi when possible, otherwise the shape X + eta(X) xi
    if alpha.is_zero:
        phi = FrameTensor.build((1, 1), n, lambda i: targets[i])
    else:
        phi = FrameTensor.build((1, 1), n, lambda i: vec_scale(chart.one() / alpha, gamma[i][xi_index]))

    xi_field = frame.from_components(xi)
    rho = -xi_field.apply(alpha)
    for i in range(n):
        dalpha = frame.fields[i].apply(alpha)
        if dalpha != rho * eta[i]:
            raise NotLcsError(f"d(alpha) is not proportional to eta along direction {i}")

    drho = [frame.fields[i].apply(rho) for i in range(n)]
    beta = _solve_proportionality(drho, eta, "beta from d(rho) = beta eta")

    return LcsStructure(xi=xi, eta=eta, phi=phi, alpha=alpha, rho=rho, beta=beta)


class AxiomCheck(NamedTuple):
    axiom: str
    description: str
    passed: bool
    detail: str = ""


def verify_axioms(data: ManifoldData, structure: LcsStructure) -> list[AxiomCheck]:
    """Check every structure axiom as an exact componentwise identity."""
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
            AxiomCheck(axiom, description, bad is None, detail if bad is None else f"residual {bad}")
        )

    record("xi-unit-timelike", "g(xi, xi) = -1", [metric.pair(st.xi, st.xi) + 1])
    record(
        "eta-metric-dual",
        "g(X, xi) = eta(X)",
        [metric.pair(unit[i], st.xi) - st.eta[i] for i in range(n)],
    )

    # covariant derivative of eta: (nabla_X eta)(Y) = X(eta(Y)) - eta(nabla_X Y)
    res = []
    for i in range(n):
        for j in range(n):
            nab_eta = frame.fields[i].apply(st.eta[j]) - st.eta_of(gamma[i][j])
            res.append(nab_eta - st.alpha * (metric.g[i][j] + st.eta[i] * st.eta[j]))
    if st.alpha.is_zero:
        checks.append(AxiomCheck("eta-covariant-derivative", "nabla eta = alpha(g + eta x eta), alpha nonzero", False, "alpha = 0"))
    else:
        record("eta-covariant-derivative", "nabla eta = alpha(g + eta x eta), alpha nonzero", res)

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

    # (nabla_X phi)Y = nabla_X(phi Y) - phi(nabla_X Y), phi as a (1,1) tensor
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


class EinsteinKind(Enum):
    EINSTEIN = "Einstein"
    ETA_EINSTEIN = "EtaEinstein"
    NEITHER = "Neither"


class ClassifierVerdict(NamedTuple):
    kind: EinsteinKind
    a: Expr | None = None
    b: Expr | None = None


def classify(ric: FrameTensor, metric: FrameMetric, eta) -> ClassifierVerdict:
    """Decide S = a g + b eta x eta by exact linear algebra plus a full
    residual verification; b = 0 collapses to the Einstein case."""
    n = metric.dim
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append((metric.g[i][j], eta[i] * eta[j], ric.comp(i, j)))
    sol, _witness = solve_two_unknowns(rows)
    if sol is None:
        return ClassifierVerdict(EinsteinKind.NEITHER)
    a, b = sol
    kind = EinsteinKind.EINSTEIN if b.is_zero else EinsteinKind.ETA_EINSTEIN
    return ClassifierVerdict(kind, a, b)


def solve_two_unknowns(rows):
    """Exact solution of rows (p, q, rhs) meaning p u + q v = rhs.

    Returns ((u, v), None) on success, with underdetermined unknowns set
    to zero, or (None, index) pointing at the first inconsistent row.
    Every returned solution has been verified against every row.
    """
    if not rows:
        raise ValueError("empty linear system")
    pivot1 = next((r for r in rows if not r[0].is_zero or not r[1].is_zero), None)
    if pivot1 is None:
        bad = next((i for i, r in enumerate(rows) if not r[2].is_zero), None)
        if bad is not None:
            return None, bad
        zero = Expr.zero(rows[0][2].vars)
        return (zero, zero), None
    p1, q1, r1 = pivot1
    pivot2 = None
    for p2, q2, r2 in rows:
        if not (p1 * q2 - p2 * q1).is_zero:
            pivot2 = (p2, q2, r2)
            break
    if pivot2 is None:
        # rank-one family: zero the unknown the pivot row does not need
        zero = Expr.zero(p1.vars)
        if not p1.is_zero:
            u, v = r1 / p1, zero
        else:
            u, v = zero, r1 / q1
    else:
        p2, q2, r2 = pivot2
        det = p1 * q2 - p2 * q1
        u = (r1 * q2 - r2 * q1) / det
        v = (p1 * r2 - p2 * r1) / det
    for idx, (p, q, r) in enumerate(rows):
        if not (p * u + q * v - r).is_zero:
            return None, idx
    return (u, v), None
