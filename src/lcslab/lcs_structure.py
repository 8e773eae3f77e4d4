"""Concircular-structure extraction.

Given a framed Lorentzian manifold and a designated unit timelike frame
field xi, this module extracts the structure data (xi, eta, phi, alpha,
rho, beta) from the three relations that define an (LCS)_n:

  - nabla xi = alpha phi, with phi X = X + eta(X) xi: alpha is one scalar
    across ALL frame directions, and nabla_xi xi = 0 is its component at xi;
  - d(alpha) = rho eta, so rho = -xi(alpha), since eta(xi) = -1;
  - d(rho) = beta eta.  The source material never defines beta; this
    proportionality convention mirrors the one for rho.  The xi-derivative
    identity is checked with this beta only: it is a theorem of the
    structure (the proof is in ``derived_conditions.nabla_r_xi_identity``).

alpha, rho and beta are each the u of lhs = u p that ``einstein.fit_two``,
the engine's one relation solver, reads (rho = d(alpha)_k / eta_k, a
division by -1, which is a negation).  Each relation holds exactly when its
residual lhs - u p (``frame_geometry.residual``) is zero, and a refusal
names the relation and the residual's first nonzero component.  The third
relation cannot fail once the first two hold: (nabla_X eta)(Y) =
g(nabla_X xi, Y) = alpha (g + eta x eta)(X, Y) is symmetric, so
d(eta) = 0, and then 0 = d(d(alpha)) = d(rho) ^ eta puts d(rho) along eta.
It is checked anyway, by the same call.

Checking the structure against every axiom is ``axioms`` (``check-lcs`` and
``conformance`` run it), and classifying the Ricci tensor is ``einstein``,
each a module of its own, so that a command loads only the code it runs.
"""

from __future__ import annotations

from collections import namedtuple

from .einstein import fit_two
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

    @property
    def alpha2_rho(self) -> Expr:
        """alpha^2 - rho, the paper's constant of the curvature along xi."""
        return self.alpha * self.alpha - self.rho


def _require_zero(res: FrameTensor, relation: str) -> None:
    """Refuse a relation whose residual is nonzero, at its first nonzero
    component, 1-based, as the reports' witnesses read."""
    if not res.is_zero:
        idx, value = res.first_nonzero()
        raise NotLcsError(f"{relation} fails at component ({','.join(str(i + 1) for i in idx)}): {value}")


def _coefficient(lhs: FrameTensor, p: FrameTensor, relation: str) -> Expr:
    """The u of lhs = u p: ``fit_two`` against p and the tensor with no
    leaves, refused unless its residual lhs - u p is zero."""
    u, _, res = next(fit_two([lhs], p, p._replace(comps={})))
    _require_zero(res, relation)
    return u


def derive_structure(data: ManifoldData) -> LcsStructure:
    """The structure data of xi = E_k, k = ``data.xi_index``; alpha may be
    identically zero (flat space), which ``ManifoldData.structure`` refuses
    and ``check-lcs`` reports."""
    frame, fields, g, n, k = data.frame, data.frame.fields, data.metric.g, data.dim, data.xi_index

    xi = frame.unit(k)
    if g[k][k] != data.chart.const(-1):
        raise NotLcsError(f"designated field is not unit timelike: g(xi,xi) = {g[k][k]}")
    eta = tuple(row[k] for row in g)
    phi = FrameTensor.build((1, 1), n, lambda i: vec_add(frame.unit(i), vec_scale(eta[i], xi)))
    nabla_xi = FrameTensor.build((1, 1), n, lambda i: data.connection.gamma[i][k])
    alpha = _coefficient(nabla_xi, phi, "nabla xi = alpha phi")

    eta_form = FrameTensor.build((0, 1), n, lambda i: eta[i])

    def d(f):  # the 1-form df
        return FrameTensor.build((0, 1), n, lambda i: fields[i].apply(f))

    rho = _coefficient(d(alpha), eta_form, "d(alpha) = rho eta")
    beta = _coefficient(d(rho), eta_form, "d(rho) = beta eta")
    return LcsStructure(xi=xi, eta=eta, phi=phi, alpha=alpha, rho=rho, beta=beta)
