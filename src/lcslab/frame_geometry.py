"""Charts, vector fields, frames, the frame metric, and exact linear algebra.

Two bases coexist throughout the engine: the coordinate basis d/dx_i (used
for directional derivatives and Lie brackets) and the frame basis E_1..E_n
(used for all tensor components).  Conversion between them is always
explicit, via ``decompose``.

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
the same Expr.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import lcm
from typing import NamedTuple

from . import polyops as P
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
        """Directional derivative X(f) = sum_i X^i df/dx_i, memoised per
        (field, f) alongside the Expr operations (see ``symexpr``)."""
        if f.is_constant:
            return self.chart.zero()
        key = (self, f)
        out = expr_memo.entries.get(key)
        if out is None:
            out = self._derivative(f)
            expr_memo.store(key, out, f.size + out.size + sum(c.size for c in self.coeffs))
        return out

    def _derivative(self, f: Expr) -> Expr:
        """X(f) for f = N/D, normalised once: with X^i = p_i/q_i and L the lcm
        of the q_i over the coordinates f depends on, w_i = p_i L/q_i is a
        polynomial and X(f) = (X_L(N) D - N X_L(D)) / (L D^2), where X_L is
        sum_i w_i d/dx_i."""
        num, den = f.num, f.den
        used = []  # (X^i, dN/dx_i, dD/dx_i) where X^i and df/dx_i are nonzero
        for i, c in enumerate(self.coeffs):
            if c.num:
                dn, dd = P.poly_diff(num, i), P.poly_diff(den, i)
                if dn or dd:
                    used.append((c, dn, dd))
        lcm = used[0][0].den if used else None
        for c, _, _ in used[1:]:
            if c.den != lcm:
                lcm = P.poly_mul(lcm, P.poly_divexact(c.den, P.poly_gcd(lcm, c.den)))
        xn, xd = {}, {}
        for c, dn, dd in used:
            w = c.num if c.den == lcm else P.poly_mul(c.num, P.poly_divexact(lcm, c.den))
            xn = P.poly_add(xn, P.poly_mul(w, dn))
            xd = P.poly_add(xd, P.poly_mul(w, dd))
        top = P.poly_sub(P.poly_mul(xn, den), P.poly_mul(num, xd))
        if not top:
            return self.chart.zero()
        return Expr(f.vars, top, P.poly_mul(lcm, P.poly_mul(den, den)))


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

    def from_components(self, comps) -> VectorField:
        """The coordinate vector field sum_i comps_i E_i."""
        return VectorField(self.chart, combo(comps, lambda i: self.fields[i].coeffs))

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
    """Symmetric Lorentzian inner products g(E_i, E_j) of a frame."""

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
        # computed once per metric: Koszul raises n^2 forms through it
        self._inverse = matrix_inverse(g)
        if self._inverse is None:
            raise DegenerateMetricError("metric determinant is identically zero")

    @classmethod
    def checked(cls, frame: Frame, g, sample_point=None) -> "FrameMetric":
        """Validate symmetry, nondegeneracy, and Lorentzian signature.

        The signature is decided by exact rational inertia at a sample
        point, which maps each coordinate Var to its value as an integer
        pair (numerator, denominator > 0) (default: every coordinate = 2); a
        global symbolic signature test is not decidable in general.  The
        metric is evaluated in integers: its entries at the point, times the
        lcm of their denominators, form an integer matrix of the same inertia.
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
                from fractions import Fraction  # the message shows the point as a dict of Fractions

                point = {v: Fraction(*pair) for v, pair in sample_point.items()}
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


class FrameTensor(NamedTuple):
    """Frame components of valence (r,s), r in {0,1}, s in 1..4, nonzero
    leaves only.

    ``comps`` maps a full covariant-index tuple (slots in the reading order
    of the tensor) to its leaf: for r=1 the frame-component tuple of the
    output vector, for r=0 a scalar Expr.  Only nonzero leaves are stored,
    in ``itertools.product`` order, and ``comp`` returns the shared ``zero``
    leaf at any other index.  Iterating ``comps`` therefore visits exactly
    the nonzero leaves, in index order, and the zero tensor has no leaves.
    """

    valence: tuple[int, int]
    comps: dict
    dim: int
    zero: object

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
            elif not leaf.is_zero:
                comps[idx] = leaf
        if leaf is None:  # empty support: the zero leaf of the first index
            leaf = fn(*(0,) * s)
        zero = Expr.zero((tuple(leaf)[0] if r else leaf).vars)
        return cls((r, s), comps, n, (zero,) * n if r else zero)

    def comp(self, *idx):
        return self.comps.get(idx, self.zero)

    def is_zero(self) -> bool:
        return not self.comps


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


# -- contractions --------------------------------------------------------------
#
# Products summed over a frame index go through dot (scalars) or combo
# (vectors).  Zero absorbs in the scalar layer (x + 0 is x, x * 0 is the
# interned zero, neither costs a GCD), but on the sparse high-n inputs most
# operands are zero and each such call still costs a coercion and a
# dispatch.  So the primitives below test for a zero operand themselves and
# return exactly the object the scalar layer would (the nonzero operand, its
# negation, or the zero operand itself), without calling it; every other
# operation runs as before, in the same order.  combo never builds vec_of(a)
# for a zero coefficient.


def vec_nonzero(u) -> bool:
    return any(not e.is_zero for e in u)


def vec_add(u, v):
    return tuple(a if b.is_zero else b if a.is_zero else a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a if b.is_zero else -b if a.is_zero else a - b for a, b in zip(u, v))


def vec_scale(c: Expr, u):
    if c.is_zero:
        return (c,) * len(u)
    return tuple(a if a.is_zero else c * a for a in u)


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
    """sum_a u[a] v[a] over two nonempty sequences of scalars; with no term
    whose factors are both nonzero, the zero factor of the first term."""
    total = None
    for a, b in zip(u, v):
        if a.is_zero or b.is_zero:
            continue
        total = a * b if total is None else total + a * b
    if total is None:
        return u[0] if u[0].is_zero else v[0]
    return total


def combo(coeffs, vec_of) -> tuple[Expr, ...]:
    """sum_a coeffs[a] vec_of(a), calling vec_of(a) only where coeffs[a] is
    nonzero.  With no nonzero coefficient the result is the zero vector with
    one component per coefficient."""
    terms = [vec_scale(c, vec_of(a)) for a, c in enumerate(coeffs) if not c.is_zero]
    if not terms:
        return (Expr.zero(coeffs[0].vars),) * len(coeffs)
    return reduce(vec_add, terms)


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
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def symmetric_inertia(m: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer
    matrix, by fraction-free congruence elimination (Sylvester's law of
    inertia).

    Step k pivots on a nonzero diagonal entry d of the trailing block (rows
    and columns k..n-1) and replaces every entry of the block past it by
    (d a_ij - a_ik a_kj) / p, where p is the previous pivot (1 at first).
    The division is exact (Bareiss): each entry is a minor of the matrix.
    The block is then d times the rational Schur complement, whose pivot is
    d / p, so that step counts as positive when d and p have the same sign.
    A zero diagonal entry is first replaced by a nonzero one of the block
    (a symmetric swap) or, when the block's diagonal is all zero, by a
    nonzero entry of its row (adding row and column ``off`` to row and
    column k); a zero row counts as a zero eigenvalue.  Both congruences
    keep the entries minors, so the divisions stay exact.
    """
    n = len(m)
    a = [list(row) for row in m]
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for j in range(k, n):
                    a[k][j] += a[off][j]
                for i in range(k, n):
                    a[i][k] += a[i][off]
        d = a[k][k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (d * row[j] - lead * a[k][j]) // prev
        prev = d
    return pos, neg, zero
