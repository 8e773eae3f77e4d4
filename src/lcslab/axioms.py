"""Verification of a concircular structure against every axiom, each an
exact componentwise identity.  ``check-lcs`` and ``conformance`` run it."""

from __future__ import annotations

from typing import NamedTuple

from .frame_geometry import combo, dot, vec_add, vec_scale, vec_sub
from .lcs_structure import LcsStructure
from .levi_civita import cov_deriv_tensor
from .manifold import ManifoldData


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
