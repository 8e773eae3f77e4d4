"""Levi-Civita connection on a (generally non-holonomic) frame.

The connection is stored against the frame itself: gamma[i][j] holds the
frame components of the covariant derivative of E_j along E_i.  The free
covariant slot of a differentiated tensor is appended as its FIRST index,
matching the reading order of (nabla_X T)(Y, Z).

``cov_deriv_tensor`` evaluates the derivative only on its support, scattered
from the stored leaves of T and the nonzero gamma (see its docstring); each
component of a leaf is one canonical sum of the same nonzero terms as the
sum over every frame index.

Half rule for (1,3) inputs: T must be antisymmetric in its first two slots,
T(X,Y) = -T(Y,X), as R is by construction (``frame_brackets`` fills
[E_j,E_i] as -[E_i,E_j] and the Riemann formula is odd in (i,j)).  Then
(nabla_W T)(E_y,E_x) = -(nabla_W T)(E_x,E_y) and the x = y leaves are zero,
so only the leaves with x < y are evaluated; each (w,y,x,z) leaf is the
componentwise negation of (w,x,y,z), which costs no GCD.
"""

from __future__ import annotations

from typing import NamedTuple

from .frame_geometry import (
    Frame,
    FrameMetric,
    FrameTensor,
    GeometryError,
    combo,
    decompose,
    lie_bracket,
    vec_add,
    vec_scale,
    vec_sum,
)
from .symexpr import Expr


class ConnectionCoeffs(NamedTuple):
    """gamma[i][j][k] with nabla_{E_i} E_j = sum_k gamma[i][j][k] E_k."""

    frame: Frame
    gamma: tuple[tuple[tuple[Expr, ...], ...], ...]

    @property
    def dim(self) -> int:
        return self.frame.dim


def frame_brackets(frame: Frame) -> tuple:
    """Frame components of every [E_i, E_j]."""
    n = frame.dim
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(tuple(-e for e in out[j][i]))
            elif j == i:
                row.append(tuple(frame.chart.zero() for _ in range(n)))
            else:
                row.append(decompose(lie_bracket(frame.fields[i], frame.fields[j]), frame))
        out.append(row)
    return tuple(tuple(r) for r in out)


def koszul(frame: Frame, metric: FrameMetric, brackets) -> ConnectionCoeffs:
    """Solve the Koszul identity for all frame triples and raise the index.

    2 g(nabla_X Y, Z) = X g(Y,Z) + Y g(X,Z) - Z g(X,Y)
                        + g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X)

    ``brackets`` holds the frame components of every [E_i, E_j], as
    ``frame_brackets`` gives them.
    """
    n = frame.dim
    g = metric.g
    low = [[metric.lower(b) for b in row] for row in brackets]
    two = frame.chart.const(2)

    def dg(i, j, k):
        return frame.fields[i].apply(g[j][k])

    def rhs(i, j, z):
        """2 g(nabla_{E_i} E_j, E_z)."""
        derivs = dg(i, j, z) + dg(j, i, z) - dg(z, i, j)
        return derivs + low[i][j][z] - low[i][z][j] - low[j][z][i]

    gamma = tuple(
        tuple(metric.raise_form([rhs(i, j, z) / two for z in range(n)]) for j in range(n)) for i in range(n)
    )
    return ConnectionCoeffs(frame, gamma)


def cov_deriv_vector(conn: ConnectionCoeffs, x, y) -> tuple[Expr, ...]:
    """Frame components of nabla_X Y for frame-component inputs."""
    fields = conn.frame.fields

    def along(i):
        return vec_add(tuple(fields[i].apply(c) for c in y), combo(y, lambda j: conn.gamma[i][j]))

    return combo(x, along)


def cov_deriv_tensor(conn: ConnectionCoeffs, tensor: FrameTensor) -> FrameTensor:
    """Covariant derivative of a (0,2) or (1,3) frame tensor, with the
    direction slot prepended as the first index.  Along E_w, with one term
    per covariant slot k,

      (nabla_w T)(..X_k..) = E_w(T(..X_k..)) - sum_k T(..nabla_w X_k..)
                             [+ nabla_w of the output vector when r = 1].

    Support: the leaf at (w, idx) can be nonzero only where T(idx) is stored
    (the derivative and output-vector terms) or where slot k of idx is some
    i with gamma[w][i][a] nonzero and T stored at idx with slot k set to a.
    One walk over the stored leaves of T scatters, for each output index and
    slot, the (gamma[w][i][a], leaf) pairs in ascending a, keeping references
    only.  Each component of an output is then one sum (``vec_sum``) of the
    derivative term, the output-vector terms and, subtracted, every slot's
    coefficient-times-leaf terms.  A term left out has a zero factor, so each
    component is the canonical sum of the same nonzero terms as the sum over
    all a.

    A (1,3) input must be antisymmetric in its first two slots (see the
    module docstring): only the outputs (w,x,y,z) with x < y are scattered
    and gathered, (w,y,x,z) is their negation, and x = y stays empty.
    ``comps`` keeps ``itertools.product`` order.
    """
    r, s = tensor.valence
    if (r, s) not in ((0, 2), (1, 3)):
        raise GeometryError(f"unsupported valence for covariant derivative: {(r, s)}")
    n = conn.dim
    gamma = conn.gamma
    fields = conn.frame.fields
    coords = conn.frame.chart.coords
    # feeds[a]: every (w, i, gamma[w][i][a]) with E_a in nabla_w E_i
    feeds = [[(w, i, gamma[w][i][a]) for w in range(n) for i in range(n) if not gamma[w][i][a].is_zero] for a in range(n)]
    # output index -> per slot, its (coefficient, leaf) pairs; scalar leaves
    # ride along as 1-vectors, which the vector helpers handle by zipping
    slot_terms = {(w, *idx): [[] for _ in idx] for idx in tensor.comps for w in range(n) if not r or idx[0] < idx[1]}
    for idx, leaf in tensor.comps.items():
        vec = leaf if r else (leaf,)
        for k, a in enumerate(idx):
            for w, i, c in feeds[a]:
                out = (w, *idx[:k], i, *idx[k + 1 :])
                if r and out[1] >= out[2]:
                    continue  # the mirror or the diagonal of the half rule
                terms = slot_terms.get(out)
                if terms is None:
                    terms = slot_terms[out] = [[] for _ in idx]
                terms[k].append((c, vec))

    def entry(w, *idx):
        base = tensor.comp(*idx)
        if not r:
            base = (base,)
        terms = [(1, tuple(fields[w].apply(c) for c in base))]
        if r:
            terms += [(1, vec_scale(c, gamma[w][a])) for a, c in enumerate(base) if not c.is_zero]
        for slot in slot_terms.get((w, *idx), ()):
            terms += [(-1, vec_scale(c, v)) for c, v in slot]
        val = vec_sum(coords, terms)
        return val if r else val[0]

    deriv = FrameTensor.build((r, s + 1), n, entry, slot_terms)
    if not r:
        return deriv
    mirror = {(w, y, x, z): tuple(-e for e in leaf) for (w, x, y, z), leaf in deriv.comps.items()}
    return deriv._replace(comps=dict(sorted({**deriv.comps, **mirror}.items())))


def lie_derivative_metric(frame: Frame, metric: FrameMetric, v) -> FrameTensor:
    """(L_V g)(X,Y) = V g(X,Y) - g([V,X],Y) - g(X,[V,Y]) on frame pairs."""
    n = frame.dim
    vfield = frame.from_components(v)

    def bracket_comps(i):
        return decompose(lie_bracket(vfield, frame.fields[i]), frame)

    with_frame = [bracket_comps(i) for i in range(n)]

    def entry(i, j):
        val = vfield.apply(metric.g[i][j])
        val = val - metric.pair(with_frame[i], frame.unit(j))
        val = val - metric.pair(frame.unit(i), with_frame[j])
        return val

    return FrameTensor.build((0, 2), n, entry)
