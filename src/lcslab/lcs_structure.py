"""Concircular-structure extraction.

Given a framed Lorentzian manifold and a designated unit timelike frame
field xi, this module extracts the structure data (xi, eta, phi, alpha,
rho, beta):

  - alpha is the unique scalar with nabla_X xi = alpha (X + eta(X) xi),
    required consistently across ALL frame directions;
  - rho = -xi(alpha), which must satisfy d(alpha) = rho * eta;
  - beta is the scalar with d(rho) = beta * eta.  The source material never
    defines beta; this proportionality convention mirrors the one for rho.
    The xi-derivative identity is checked with this beta only: it is a
    theorem of the structure (the proof is in
    ``derived_conditions.nabla_r_xi_identity``).

Checking the structure against every axiom is ``axioms`` (``check-lcs`` and
``conformance`` run it), and classifying the Ricci tensor is ``einstein``,
each a module of its own, so that a command loads only the code it runs.
"""

from __future__ import annotations

from collections import namedtuple

from .frame_geometry import FrameTensor, combo, dot, vec_add, vec_scale
from .manifold import ManifoldData
from .symexpr import Expr


class NotLcsError(Exception):
    """The designated field does not induce a concircular structure."""


class LcsStructure(namedtuple("LcsStructure", "xi eta phi alpha rho beta")):
    """xi, eta (tuples of Expr); phi (FrameTensor); alpha, rho, beta (Expr)."""

    __slots__ = ()

    def eta_of(self, v) -> Expr:
        return dot(self.eta, v)

    def phi_of(self, v) -> tuple[Expr, ...]:
        return combo(v, self.phi.comp)


def _solve_proportionality(values, reference, what: str) -> Expr:
    """The unique scalar s with values_i = s * reference_i for all i; some
    reference_i is nonzero (each caller's is: component i of the target
    E_i + eta_i xi is 1, and eta_k = g(xi,xi) = -1 is checked first)."""
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
    return s


def derive_structure(data: ManifoldData) -> LcsStructure:
    """The structure data of xi = E_k, k = ``data.xi_index``; alpha may be
    identically zero (flat space), which ``ManifoldData.structure`` refuses
    and ``check-lcs`` reports."""
    frame = data.frame
    g = data.metric.g
    chart = data.chart
    n = data.dim
    k = data.xi_index

    xi = frame.unit(k)
    norm = g[k][k]
    if norm != chart.const(-1):
        raise NotLcsError(f"designated field is not unit timelike: g(xi,xi) = {norm}")
    eta = tuple(row[k] for row in g)

    # alpha from nabla_X xi = alpha (X + eta(X) xi), over every frame X
    gamma = data.connection.gamma
    alpha = None
    targets = []
    for i in range(n):
        nab = gamma[i][k]
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
    # alpha is set: the target E_i + eta_i xi degenerates only at i = k (its
    # component i is 1 elsewhere), and a definition has at least 2 coordinates

    # phi = (1/alpha) nabla xi is the shape X + eta(X) xi just checked
    # component by component, so it is built from the shape itself
    phi = FrameTensor.build((1, 1), n, lambda i: targets[i])

    rho = -frame.fields[k].apply(alpha)
    for i in range(n):
        dalpha = frame.fields[i].apply(alpha)
        if dalpha != rho * eta[i]:
            raise NotLcsError(f"d(alpha) is not proportional to eta along direction {i}")

    drho = [frame.fields[i].apply(rho) for i in range(n)]
    beta = _solve_proportionality(drho, eta, "beta from d(rho) = beta eta")

    return LcsStructure(xi=xi, eta=eta, phi=phi, alpha=alpha, rho=rho, beta=beta)
