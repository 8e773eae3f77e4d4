"""Concircular-structure extraction.

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

Checking the structure against every axiom is ``axioms`` (``check-lcs`` and
``conformance`` run it), and classifying the Ricci tensor is ``einstein``,
each a module of its own, so that a command loads only the code it runs.
"""

from __future__ import annotations

from typing import NamedTuple

from .frame_geometry import FrameTensor, combo, dot, vec_add, vec_scale
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
