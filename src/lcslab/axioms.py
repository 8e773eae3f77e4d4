"""Verification of a concircular structure against every axiom, each an
exact componentwise identity.  ``check-lcs`` and ``conformance`` run it.

The axioms are one table walked by one routine.  A row gives the axiom's
id, its description, the number k of frame indices it takes and its
residual, lhs - rhs at those indices: one Expr, or a vector of them.  The
walker evaluates each residual at every index in ``itertools.product``
order over range(n)^k and reads a vector one component at a time; the
first nonzero component fails the axiom and becomes its detail
(``residual ...``), and the axiom's later indices are not evaluated.  The
one condition that is not an identity, alpha nonzero, fails
``eta-covariant-derivative`` with the detail ``alpha = 0`` and no residual.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .frame_geometry import combo, dot, vec_add, vec_scale, vec_sub
from .lcs_structure import LcsStructure
from .levi_civita import cov_deriv_tensor
from .manifold import ManifoldData


class AxiomCheck(namedtuple("AxiomCheck", "axiom description detail", defaults=("",))):
    """axiom, description (str); detail (str: empty when the axiom holds)."""

    __slots__ = ()


def verify_axioms(data: ManifoldData, structure: LcsStructure) -> list[AxiomCheck]:
    """Check every structure axiom as an exact componentwise identity."""
    n, st, metric, g = data.dim, structure, data.metric, data.metric.g
    fields, gamma = data.frame.fields, data.connection.gamma
    riem, ric = data.stack.riemann13, data.stack.ricci
    unit = [data.frame.unit(i) for i in range(n)]
    k2 = st.alpha2_rho
    n_minus_1 = data.chart.const(n - 1)
    # (nabla_X phi)Y = nabla_X(phi Y) - phi(nabla_X Y), phi as a (1,1) tensor
    nabla_phi = cov_deriv_tensor(data.connection, st.phi)

    def shape(i):  # E_i + eta(E_i) xi
        return vec_add(unit[i], vec_scale(st.eta[i], st.xi))

    table = (
        ("xi-unit-timelike", "g(xi, xi) = -1", 0, lambda: metric.pair(st.xi, st.xi) + 1),
        ("eta-metric-dual", "g(X, xi) = eta(X)", 1, lambda i: metric.pair(unit[i], st.xi) - st.eta[i]),
        # (nabla_X eta)(Y) = X(eta(Y)) - eta(nabla_X Y)
        ("eta-covariant-derivative", "nabla eta = alpha(g + eta x eta), alpha nonzero", 2, lambda i, j: (
            fields[i].apply(st.eta[j]) - st.eta_of(gamma[i][j]) - st.alpha * (g[i][j] + st.eta[i] * st.eta[j]))),
        ("alpha-gradient", "d(alpha) = rho eta with rho = -xi(alpha)", 1,
            lambda i: fields[i].apply(st.alpha) - st.rho * st.eta[i]),
        ("rho-gradient", "d(rho) = beta eta", 1, lambda i: fields[i].apply(st.rho) - st.beta * st.eta[i]),
        ("phi-shape", "phi X = X + eta(X) xi", 1, lambda i: vec_sub(st.phi.comp(i), shape(i))),
        ("phi-square", "phi^2 = I + eta x xi", 1, lambda i: vec_sub(st.phi_of(st.phi.comp(i)), shape(i))),
        ("phi-xi-relations", "eta(xi) = -1, phi xi = 0, eta(phi X) = 0", 0, lambda: (
            st.eta_of(st.xi) + 1, *st.phi_of(st.xi), *(st.eta_of(st.phi.comp(i)) for i in range(n)))),
        ("phi-isometry", "g(phi X, phi Y) = g(X,Y) + eta(X) eta(Y)", 2,
            lambda i, j: metric.pair(st.phi.comp(i), st.phi.comp(j)) - g[i][j] - st.eta[i] * st.eta[j]),
        ("phi-covariant-derivative", "(nabla_X phi)Y = alpha{g(X,Y)xi + 2eta(X)eta(Y)xi + eta(Y)X}", 2,
            lambda i, j: vec_sub(nabla_phi.comp(i, j), vec_add(
                vec_scale(st.alpha * (g[i][j] + 2 * (st.eta[i] * st.eta[j])), st.xi),
                vec_scale(st.alpha * st.eta[j], unit[i])))),
        ("eta-of-curvature", "eta(R(X,Y)Z) = (alpha^2-rho){g(Y,Z)eta(X) - g(X,Z)eta(Y)}", 3, lambda i, j, k: (
            st.eta_of(riem.comp(i, j, k)) - k2 * (g[j][k] * st.eta[i] - g[i][k] * st.eta[j]))),
        ("curvature-into-xi", "R(X,Y)xi = (alpha^2-rho){eta(Y)X - eta(X)Y}", 2, lambda i, j: vec_sub(
            combo(st.xi, lambda a: riem.comp(i, j, a)),
            vec_sub(vec_scale(k2 * st.eta[j], unit[i]), vec_scale(k2 * st.eta[i], unit[j])))),
        ("curvature-from-xi", "R(xi,X)Y = (alpha^2-rho){g(X,Y)xi - eta(Y)X}", 2, lambda j, k: vec_sub(
            combo(st.xi, lambda a: riem.comp(a, j, k)),
            vec_sub(vec_scale(k2 * g[j][k], st.xi), vec_scale(k2 * st.eta[k], unit[j])))),
        ("ricci-into-xi", "S(X, xi) = (n-1)(alpha^2-rho) eta(X)", 1,
            lambda i: dot(st.xi, [ric.comp(i, j) for j in range(n)]) - n_minus_1 * k2 * st.eta[i]),
    )

    checks = []
    for axiom, description, arity, residual in table:
        if axiom == "eta-covariant-derivative" and st.alpha.is_zero:
            detail = "alpha = 0"
        else:
            values = (residual(*idx) for idx in product(range(n), repeat=arity))
            bad = next((e for r in values for e in (r if isinstance(r, tuple) else (r,)) if e.num), None)
            detail = "" if bad is None else f"residual {bad}"
        checks.append(AxiomCheck(axiom, description, detail))
    return checks
