"""Levi-Civita connection on a (generally non-holonomic) frame, and the one
derivation routine.

The connection is stored against the frame itself: gamma[i][j] holds the
frame components of the covariant derivative of E_j along E_i.  The free
slot of a differentiated tensor is appended as its FIRST index, matching
the reading order of (nabla_X T)(Y, Z).

Every derivation of a tensor in the engine goes through ``derivation``: the
covariant derivatives nabla S, nabla R and nabla phi (``cov_deriv_tensor``),
the Lie derivative L_xi g (``lie_derivative_metric``), and the algebraic
actions R(xi,X).M and C(xi,X).S of the derived conditions
(``derived_conditions``).
It evaluates the derivation only on its support, scattered from the stored
leaves of T and the nonzero entries of its operators (see its docstring);
each component of a leaf is one canonical sum of the same nonzero terms as
the sum over every frame index.

Half rule for (1,3) inputs: T must be antisymmetric in its first two slots,
T(X,Y) = -T(Y,X).  R is by construction (``frame_brackets`` fills
[E_j,E_i] as -[E_i,E_j] and the Riemann formula is odd in (i,j)), and so is
M, which ``curvature`` stores as such.  Then
(D_W T)(E_y,E_x) = -(D_W T)(E_x,E_y) and the x = y leaves are zero, so only
the leaves with x < y are evaluated; each (w,y,x,z) leaf is the
componentwise negation of (w,x,y,z) (``frame_geometry.mirror_pairs``, the
one home of the half rule), which costs no GCD.
"""

from __future__ import annotations

from collections import namedtuple

from .frame_geometry import (
    Frame,
    FrameMetric,
    FrameTensor,
    GeometryError,
    decompose,
    lie_bracket,
    mirror_pairs,
    vec_nonzero,
    vec_scale,
    vec_sum,
)
from .symexpr import Expr


class ConnectionCoeffs(namedtuple("ConnectionCoeffs", "frame gamma")):
    """gamma[i][j][k] with nabla_{E_i} E_j = sum_k gamma[i][j][k] E_k.

    frame (Frame); gamma (n x n x n nested tuples of Expr).
    """

    __slots__ = ()

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
    ``frame_brackets`` gives them.  Each right-hand side is one ``Expr.sum``
    of its six terms.
    """
    n = frame.dim
    g = metric.g
    coords = frame.chart.coords
    low = [[metric.lower(b) for b in row] for row in brackets]
    two = frame.chart.const(2)

    def dg(i, j, k):
        return frame.fields[i].apply(g[j][k])

    def rhs(i, j, z):
        """2 g(nabla_{E_i} E_j, E_z)."""
        terms = [(1, dg(i, j, z)), (1, dg(j, i, z)), (-1, dg(z, i, j))]
        terms += [(1, low[i][j][z]), (-1, low[i][z][j]), (-1, low[j][z][i])]
        return Expr.sum(coords, terms)

    gamma = tuple(
        tuple(metric.raise_form([rhs(i, j, z) / two for z in range(n)]) for j in range(n)) for i in range(n)
    )
    return ConnectionCoeffs(frame, gamma)


def derivation(tensor: FrameTensor, ops, fields=None, keep=None) -> FrameTensor:
    """A family of derivations D_w applied to a (1,1), (0,2) or (1,3) frame
    tensor, with the direction slot w prepended as the first index.  ops[w][i]
    holds the frame components of D_w E_i, one row per direction; fields[w]
    is the vector field whose derivative D_w takes of a function, or, with
    ``fields`` None, D_w is algebraic and kills functions.  With one term per
    covariant slot k,

      (D_w T)(..X_k..) = D_w(T(..X_k..)) - sum_k T(..D_w X_k..)
                         [+ D_w of the output vector when r = 1].

    Support: the leaf at (w, idx) can be nonzero only where T(idx) is stored
    (the derivative and output-vector terms; for an algebraic derivation only
    along a direction w whose row of ops is nonzero) or where slot k of idx is
    some i with ops[w][i][a] nonzero and T stored at idx with slot k set to a.
    One walk over the stored leaves of T scatters, for each output index and
    slot, the (ops[w][i][a], leaf) pairs in ascending a, keeping references
    only.  Each component of an output is then one sum (``vec_sum``) of the
    derivative term, the output-vector terms and, subtracted, every slot's
    coefficient-times-leaf terms.  A term left out has a zero factor, so each
    component is the canonical sum of the same nonzero terms as the sum over
    all a.

    A (1,3) input must be antisymmetric in its first two slots (see the
    module docstring): only the outputs (w,x,y,z) with x < y are scattered
    and gathered, (w,y,x,z) is their negation, and x = y stays empty.
    ``keep``, a predicate on (w, x, y), narrows those outputs to the ones it
    holds for, each the same sum as in the full walk (None keeps them all).
    ``comps`` keeps ``itertools.product`` order.
    """
    r, s = tensor.valence
    if (r, s) not in ((1, 1), (0, 2), (1, 3)):
        raise GeometryError(f"unsupported valence for a derivation: {(r, s)}")
    half = s == 3
    n = tensor.dim
    nothing = tensor.zero if r else (tensor.zero,)  # the derivative term of an algebraic derivation
    coords = nothing[0].vars
    dirs = range(len(ops)) if fields else [w for w, row in enumerate(ops) if any(map(vec_nonzero, row))]
    # feeds[a]: every (w, i, ops[w][i][a]) with E_a in D_w E_i
    feeds = [[(w, i, row[i][a]) for w, row in enumerate(ops) for i in range(n) if row[i][a].num] for a in range(n)]
    # output index -> per slot, its (coefficient, leaf) pairs; scalar leaves
    # ride along as 1-vectors, which the vector helpers handle by zipping
    def kept(w, x, y):  # of a (1,3) input, the outputs (w,x,y,z) scattered and gathered
        return x < y and (keep is None or keep(w, x, y))

    slot_terms = {(w, *idx): [[] for _ in idx] for idx in tensor.comps for w in dirs if not half or kept(w, *idx[:2])}
    for idx, leaf in tensor.comps.items():
        vec = leaf if r else (leaf,)
        for k, a in enumerate(idx):
            for w, i, c in feeds[a]:
                out = (w, *idx[:k], i, *idx[k + 1 :])
                if half and not kept(*out[:3]):
                    continue  # the mirror or the diagonal of the half rule, or not kept
                terms = slot_terms.get(out)
                if terms is None:
                    terms = slot_terms[out] = [[] for _ in idx]
                terms[k].append((c, vec))

    def entry(w, *idx):
        base = tensor.comp(*idx)
        if not r:
            base = (base,)
        terms = [(1, tuple(fields[w].apply(c) for c in base) if fields else nothing)]
        if r:
            terms += [(1, vec_scale(c, ops[w][a])) for a, c in enumerate(base) if c.num]
        for slot in slot_terms.get((w, *idx), ()):
            terms += [(-1, vec_scale(c, v)) for c, v in slot]
        val = vec_sum(coords, terms)
        return val if r else val[0]

    out = FrameTensor.build((r, s + 1), n, entry, slot_terms)
    return mirror_pairs(out, 1) if half else out


def cov_deriv_tensor(conn: ConnectionCoeffs, tensor: FrameTensor, keep=None) -> FrameTensor:
    """Covariant derivative of a (1,1), (0,2) or (1,3) frame tensor, with the
    direction slot prepended as the first index: the derivation whose
    directions are the frame fields, with D_w E_i = nabla_w E_i.  ``keep``
    narrows a (1,3) tensor's derivative to the leaves (w, x, y, z) it holds
    for, and their mirrors (see ``derivation``)."""
    return derivation(tensor, conn.gamma, conn.frame.fields, keep)


def lie_derivative_metric(frame: Frame, metric: FrameMetric, brackets, k: int) -> FrameTensor:
    """(L_xi g)(X,Y) = xi g(X,Y) - g([xi,X],Y) - g(X,[xi,Y]) on frame pairs,
    xi = E_k: the derivation of g along the one direction E_k, with
    D E_i = [E_k, E_i], row k of ``brackets`` (``frame_brackets``)."""
    lie = derivation(metric.tensor, [brackets[k]], [frame.fields[k]])
    return lie._replace(valence=(0, 2), comps={idx[1:]: leaf for idx, leaf in lie.comps.items()})
