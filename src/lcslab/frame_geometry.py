"""Charts, vector fields, frames, the frame metric, and exact linear algebra.

Two bases coexist throughout the engine: the coordinate basis d/dx_i (used
for directional derivatives and Lie brackets) and the frame basis E_1..E_n
(used for all tensor components).  Conversion between them is always
explicit, via ``decompose``.

Fraction arithmetic lives in ``symexpr``: this module calls no polynomial
kernel.  ``VectorField.apply`` memoises X(f), which ``Expr.along``
computes.  The one read of an Expr's parts is the zero test ``e.num`` of
the contraction primitives, ``FrameTensor.build``, ``VectorField.apply``
and ``matrix_inverse``, run once per operand, and of the engine's other
frequent zero tests (the filters of the Riemann entry in ``curvature`` and
of ``levi_civita.derivation``, the axiom walker, ``cli.format_vector``):
the attribute read takes a quarter or less of the time of the ``is_zero``
property (11-19 against 64-107 ns a test, timeit on a 2-CPU Xeon
container).

The one exact solver for symbolic matrices is ``matrix_inverse``.  A frame
and a frame metric each invert their matrix once, on construction: the
inverse existing is the nondegeneracy check, ``decompose`` multiplies by the
frame's inverse, and Koszul raises indices through the metric's.

A ``FrameTensor`` keeps only its nonzero leaves, keyed by full index tuple.
Most leaves of the curvature tensors are zero, so every scan for nonzero
entries walks ``comps`` rather than all n^s indices, and a tensor built from
others is evaluated only on its *support*: the indices where some term of its
formula has nonzero operands, derived from the stored leaves of its inputs.
Anywhere else every term is a product with a zero factor or a sum of zeros,
which the scalar layer answers without arithmetic.  Inside the support each
leaf is the same formula on the same operands, so each sum is one canonical
sum of the same nonzero terms as over all n^s indices and every result is
the same Expr.  Every relation lhs = u p + v q of the condition layer has its
residual lhs - u p - v q formed by one routine, ``residual``, on its support.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import lcm
from operator import mul, ne

from .polyops import expr_memo
from .symexpr import Expr, Var, parse


class GeometryError(Exception):
    pass


class SingularFrameError(GeometryError):
    pass


class DegenerateMetricError(GeometryError):
    pass


class SignatureError(GeometryError):
    """Metric is not Lorentzian (-,+,...,+) at the sample point."""


class Chart:
    def __init__(self, coords: tuple[Var, ...]):
        names = [v.name for v in coords]
        if len(set(names)) != len(names):
            raise GeometryError(f"duplicate coordinate names: {names}")
        if not names:
            raise GeometryError("chart needs at least one coordinate")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    def zero(self) -> Expr:
        return Expr.zero(self.coords)

    def one(self) -> Expr:
        return Expr.one(self.coords)

    def const(self, value) -> Expr:
        return Expr.constant(self.coords, value)

    def parse(self, text: str) -> Expr:
        return parse(text, self.coords)


class VectorField:
    """Coordinate-basis components of a vector field."""

    def __init__(self, chart: Chart, coeffs: tuple[Expr, ...]):
        if len(coeffs) != chart.dim:
            raise GeometryError("component count does not match chart dimension")
        self.chart = chart
        self.coeffs = coeffs

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f) = sum_i X^i df/dx_i (``Expr.along``),
        memoised per (field, f) alongside the Expr operations (see
        ``symexpr``)."""
        if not f.num:
            return f
        if f.is_constant:
            return self.chart.zero()
        key = (self, f)
        out = expr_memo.entries.get(key)
        if out is None:
            out = f.along(self.coeffs)
            expr_memo.store(key, out, f.size + out.size + sum(c.size for c in self.coeffs))
        return out


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X,Y] in coordinate components: X(Y^j) - Y(X^j)."""
    if x.chart.coords != y.chart.coords:
        raise GeometryError("vector fields live on different charts")
    return VectorField(x.chart, tuple(x.apply(yc) - y.apply(xc) for xc, yc in zip(x.coeffs, y.coeffs)))


class Frame:
    def __init__(self, fields: tuple[VectorField, ...]):
        self.fields = fields
        if len(fields) != self.dim:
            raise GeometryError("frame must have one field per dimension")
        # rows are the frame fields; decompose multiplies by the inverse
        self._inverse = matrix_inverse([f.coeffs for f in fields])
        if self._inverse is None:
            raise SingularFrameError("frame coefficient matrix is singular")

    @property
    def chart(self) -> Chart:
        return self.fields[0].chart

    @property
    def dim(self) -> int:
        return self.chart.dim

    def unit(self, i: int) -> tuple[Expr, ...]:
        """Frame components of E_i."""
        chart = self.chart
        return tuple(chart.one() if j == i else chart.zero() for j in range(self.dim))


def decompose(x: VectorField, frame: Frame) -> tuple[Expr, ...]:
    """Frame components c with sum_i c_i E_i = x.

    With the frame fields as the rows of M, x^T = c^T M, so
    c_i = sum_k x_k (M^-1)_{ki}.
    """
    inv = frame._inverse
    return combo(x.coeffs, lambda k: inv[k])


class FrameMetric:
    """Symmetric Lorentzian inner products g(E_i, E_j) of a frame: ``g``, the
    matrix, and ``tensor``, g as a (0,2) ``FrameTensor`` built once, whose
    stored leaves are the nonzero entries.  Every relation with a g term
    (the Ricci shape, the soliton, L_xi g) reads ``tensor``, and every
    support with a g term is read off its ``comps``."""

    def __init__(self, frame: Frame, g: tuple[tuple[Expr, ...], ...]):
        n = frame.dim
        if len(g) != n or any(len(row) != n for row in g):
            raise GeometryError("metric must be a square matrix over the frame")
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise GeometryError(f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ as expressions")
        self.frame = frame
        self.g = g
        self.tensor = FrameTensor.build((0, 2), n, lambda i, j: g[i][j])
        # computed once per metric: Koszul raises n^2 forms through it
        self._inverse = matrix_inverse(g)
        if self._inverse is None:
            raise DegenerateMetricError("metric determinant is identically zero")

    @classmethod
    def checked(cls, frame: Frame, g, sample_point=None) -> "FrameMetric":
        """Validate symmetry, nondegeneracy, and Lorentzian signature.

        The signature is decided at a sample point, which maps each
        coordinate Var to its value as an integer pair (numerator,
        denominator > 0) (default: every coordinate = 2); a global symbolic
        signature test is not decidable in general.  The metric is evaluated
        in integers: its entries at the point, times the lcm of their
        denominators, form an integer matrix of the same inertia, which
        Descartes' rule of signs reads from its integer characteristic
        polynomial (``symmetric_inertia``).
        """
        metric = cls(frame, tuple(tuple(row) for row in g))
        coords = frame.chart.coords
        if sample_point is None:
            sample_point = {v: (2, 1) for v in coords}
        values = tuple(sample_point[v] for v in coords)
        numeric = []
        for row in metric.g:
            numeric.append([e.value_at(values) for e in row])
            pole = next((e for e, (_, den) in zip(row, numeric[-1]) if not den), None)
            if pole is not None:
                # the point as a user writes it: x=2, y=1/2, ...
                point = ", ".join(f"{v.name}={Expr.ratio(coords, *value)}" for v, value in zip(coords, values))
                raise SignatureError(
                    f"cannot evaluate metric at the sample point: denominator of {pole} vanishes at {point}"
                )
        scale = lcm(*(den for row in numeric for _, den in row))
        pos, neg, zero = symmetric_inertia([[num * (scale // den) for num, den in row] for row in numeric])
        if zero:
            raise DegenerateMetricError("metric is degenerate at the sample point")
        if neg != 1:
            raise SignatureError(
                f"metric signature at the sample point is ({pos},{neg}); "
                "expected one negative and the rest positive"
            )
        return metric

    @property
    def dim(self) -> int:
        return self.frame.dim

    def pair(self, u, v) -> Expr:
        """u^T g v for frame-component vectors u, v."""
        return dot(u, self.lower(v))

    def inverse(self) -> tuple[tuple[Expr, ...], ...]:
        return self._inverse

    def lower(self, u) -> tuple[Expr, ...]:
        """Covariant components g(u, E_j); g is symmetric, so row j serves."""
        return tuple(dot(row, u) for row in self.g)

    def raise_form(self, w) -> tuple[Expr, ...]:
        """Frame components of the metric dual of a 1-form."""
        return tuple(dot(row, w) for row in self.inverse())


class FrameTensor(namedtuple("FrameTensor", "valence comps dim zero")):
    """Frame components of valence (r,s), r in {0,1}, s in 1..4, nonzero
    leaves only: valence (tuple of two ints), comps (dict), dim (int) and
    zero (the leaf of an absent index).

    ``comps`` maps a full covariant-index tuple (slots in the reading order
    of the tensor) to its leaf: for r=1 the frame-component tuple of the
    output vector, for r=0 a scalar Expr.  Only nonzero leaves are stored,
    in ``itertools.product`` order, and ``comp`` returns the shared ``zero``
    leaf at any other index.  Iterating ``comps`` therefore visits exactly
    the nonzero leaves, in index order, and the zero tensor has no leaves.
    """

    __slots__ = ()

    @classmethod
    def build(cls, valence, n: int, fn, support=None) -> "FrameTensor":
        """The tensor with leaf ``fn(*idx)`` at every index, evaluated only at
        the index tuples in ``support`` (all n^s indices when it is None), in
        ``itertools.product`` order.  The caller guarantees that the leaf at
        every index outside the support is zero by construction.
        """
        r, s = valence
        if r not in (0, 1) or s not in (1, 2, 3, 4):
            raise GeometryError(f"unsupported valence {valence}")
        comps = {}
        leaf = None
        for idx in product(range(n), repeat=s) if support is None else sorted(support):
            leaf = fn(*idx)
            if r:
                leaf = tuple(leaf)
                if vec_nonzero(leaf):
                    comps[idx] = leaf
            elif leaf.num:
                comps[idx] = leaf
        if leaf is None:  # empty support: the zero leaf of the first index
            leaf = fn(*(0,) * s)
        zero = Expr.zero((tuple(leaf)[0] if r else leaf).vars)
        return cls((r, s), comps, n, (zero,) * n if r else zero)

    def comp(self, *idx):
        return self.comps.get(idx, self.zero)

    def at(self, idx):
        """The scalar at a full index: a vector leaf's component index last."""
        return self.comp(*idx[:-1])[idx[-1]] if self.valence[0] else self.comp(*idx)

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def first_nonzero(self):
        """Index and value of the first nonzero scalar, a vector leaf's
        component index appended; (None, None) for the zero tensor."""
        idx, leaf = next(iter(self.comps.items()), (None, None))
        if idx is None or not self.valence[0]:
            return idx, leaf
        u = next(u for u, e in enumerate(leaf) if not e.is_zero)
        return idx + (u,), leaf[u]


def mirror_pairs(tensor: FrameTensor, at: int) -> FrameTensor:
    """The half rule of a (1, s) tensor antisymmetric in its slots ``at`` and
    ``at`` + 1, T(..X,Y..) = -T(..Y,X..): ``tensor`` holds the leaves with
    slot ``at`` below slot ``at`` + 1, and each is mirrored to the index with
    those two slots swapped as its componentwise negation, which costs no
    GCD.  The leaves with the two slots equal are zero and stay empty.
    ``comps`` keeps ``itertools.product`` order."""
    mirror = {
        (*idx[:at], idx[at + 1], idx[at], *idx[at + 2 :]): tuple(-e for e in leaf) for idx, leaf in tensor.comps.items()
    }
    return tensor._replace(comps=dict(sorted({**tensor.comps, **mirror}.items())))


def residual(lhs: FrameTensor, p: FrameTensor, q: FrameTensor, u: Expr, v: Expr) -> FrameTensor:
    """lhs - u p - v q for three tensors of one valence and scalars u, v, on
    its support: the leaves stored in lhs, in p when u is nonzero and in q
    when v is nonzero.  Anywhere else every term has a zero operand.  With
    an empty support the residual is lhs, the zero tensor."""
    support = set(lhs.comps).union(*(t.comps for c, t in ((u, p), (v, q)) if not c.is_zero))
    if not support:
        return lhs
    vector = lhs.valence[0]

    def leaf(*idx):
        a, b, c = lhs.comp(*idx), p.comp(*idx), q.comp(*idx)
        return vec_sub(vec_sub(a, vec_scale(u, b)), vec_scale(v, c)) if vector else a - u * b - v * c

    return FrameTensor.build(lhs.valence, lhs.dim, leaf, support)


# -- contractions --------------------------------------------------------------
#
# Products summed over a frame index go through dot (scalars) or combo
# (vectors), each one Expr.sum (vec_sum) of its nonzero terms, normalised
# once.  Zero absorbs in the scalar layer (x + 0 is x, x * 0 is the interned
# zero, neither costs a GCD), but on the sparse high-n inputs most operands
# are zero and each such call still costs a coercion and a dispatch.  So the
# primitives below test for a zero operand themselves and return exactly the
# object the scalar layer would (the nonzero operand, its negation, or the
# zero operand itself), without calling it.  combo never builds vec_of(a)
# for a zero coefficient.


def vec_nonzero(u) -> bool:
    return any(e.num for e in u)


def vec_add(u, v):
    return tuple(a if not b.num else b if not a.num else a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a if not b.num else -b if not a.num else a - b for a, b in zip(u, v))


def vec_scale(c: Expr, u):
    if not c.num:
        return (c,) * len(u)
    return tuple(c * a if a.num else a for a in u)


def vec_sum(variables, terms) -> tuple[Expr, ...]:
    """sum_t sign_t v_t over nonempty (sign, vector) terms, each component one
    ``Expr.sum``: normalised once, whatever the number of terms."""
    signs = [s for s, _ in terms]
    zero = Expr.zero(variables)
    out = []
    for comps in zip(*(v for _, v in terms)):
        live = [(s, e) for s, e in zip(signs, comps) if e.num]
        out.append(Expr.sum(variables, live) if live else zero)
    return tuple(out)


def dot(u, v) -> Expr:
    """sum_a u[a] v[a] over two nonempty sequences of scalars: one
    ``Expr.sum`` of the products whose factors are both nonzero."""
    return Expr.sum(u[0].vars, [(1, a * b) for a, b in zip(u, v) if a.num and b.num])


def combo(coeffs, vec_of) -> tuple[Expr, ...]:
    """sum_a coeffs[a] vec_of(a), one ``vec_sum`` of the scaled vectors,
    calling vec_of(a) only where coeffs[a] is nonzero.  With no nonzero
    coefficient the result is the zero vector with one component per
    coefficient."""
    variables = coeffs[0].vars
    terms = [(1, vec_scale(c, vec_of(a))) for a, c in enumerate(coeffs) if c.num]
    if not terms:
        return (Expr.zero(variables),) * len(coeffs)
    return vec_sum(variables, terms)


# -- exact linear algebra over the function field ---------------------------


def matrix_inverse(a) -> tuple[tuple[Expr, ...], ...] | None:
    """Gauss-Jordan inverse of a square matrix of Exprs; None when singular."""
    n = len(a)
    zero = Expr.zero(a[0][0].vars)
    one = Expr.one(a[0][0].vars)
    rows = [list(a[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        # deterministic pivot: the smallest stored form, ties to the lowest row
        pivots = [(rows[r][col].size, r) for r in range(col, n) if not rows[r][col].is_zero]
        if not pivots:
            return None
        p = min(pivots)[1]
        rows[col], rows[p] = rows[p], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r == col:
                continue
            factor = rows[r][col]
            if factor.num:  # a zero factor leaves the row as it is
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def symmetric_inertia(m: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, by Descartes' rule of signs on its characteristic polynomial
    det(tI - m) = sum_k c_k t^(n-k).

    Faddeev-LeVerrier gives the coefficients in integers: c_0 = 1, M_1 = I,
    M_k = m M_(k-1) + c_(k-1) I and c_k = -tr(m M_k) / k, the division exact
    (c_k is, up to sign, the sum of the principal k-minors).  A real
    symmetric matrix has only real eigenvalues, so the rule is exact: the
    positive eigenvalues are the sign changes along the nonzero
    coefficients, the zero ones are the trailing zero coefficients, and the
    negative ones are the rest.
    """
    n = len(m)
    coeffs = [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mm = [[sum(map(mul, row, col)) for col in zip(*mk)] for row in m]
        c = -sum(mm[i][i] for i in range(n)) // k
        coeffs.append(c)
        mk = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(mm)]
    signs = [c > 0 for c in coeffs if c]
    pos = sum(map(ne, signs, signs[1:]))
    zero = next(j for j, c in enumerate(reversed(coeffs)) if c)
    return pos, n - pos - zero, zero
