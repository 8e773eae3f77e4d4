"""Riemann, Ricci, scalar, Ricci-operator, M-projective and concircular
tensors.

Sign and contraction conventions are pinned by a single anchor: on the
bundled reference manifold the Ricci value S(E_3, E_3) must come out as
-4/z^2, which also makes S(X, xi) = (n-1)(alpha^2 - rho) eta(X) hold.  The
contraction implementing that anchor is
S(Y, Z) = sum_{a,b} g^{ab} g(R(E_a, Y) Z, E_b).
It is computed as the trace S(Y, Z) = sum_a [R(E_a, Y) Z]^a, which is the
same number exactly: g(R(E_a, Y) Z, E_b) = sum_u [R(E_a, Y) Z]^u g_{ub}, and
sum_b g_{ub} g^{ab} is the identity, so only the u = a terms survive.

The structural self-checks of the stack (``CurvatureStack.self_check``)
are the module ``self_checks``, which only the ``curvature`` and
``conformance`` commands load, on the first call.

Every tensor here is evaluated only on its support, derived from the stored
leaves of its inputs (g's are those of ``FrameMetric.tensor``) and the
nonzero entries of gamma and the brackets (each function's docstring gives
its rule).  Outside it every term of the formula has a zero operand; inside
it the formula is the same, so each sum is one canonical sum of the same
nonzero terms, and every Expr is that of the evaluation at all n^s indices.

M and C take the half rule of ``frame_geometry.mirror_pairs`` on top: both
formulas are odd in (X, Y) wherever R's is, so only their leaves with x < y
are evaluated, each (y,x,z) leaf is the negation of (x,y,z), and the x = y
leaves stay empty.  Each mirrored leaf is the Expr the formula gives there
(Exprs are canonical).  R and S themselves are evaluated at every index of
their support: the self-checks test their symmetries, while neither M nor C
is self-checked.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .frame_geometry import FrameMetric, FrameTensor, mirror_pairs, vec_add, vec_nonzero, vec_scale, vec_sub, vec_sum
from .levi_civita import ConnectionCoeffs
from .symexpr import Expr


def riemann(conn: ConnectionCoeffs, brackets) -> FrameTensor:
    """R(E_i, E_j)E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k - nabla_{[E_i,E_j]} E_k.

    Component u is one sum (``vec_sum``) of the terms
    E_i(gamma_jk^u) - E_j(gamma_ik^u) + sum_a gamma_jk^a gamma_ia^u
    - sum_a gamma_ik^a gamma_ja^u - sum_a [E_i,E_j]^a gamma_ak^u.

    Support: (i,j,k) and (j,i,k) for every nonzero gamma[j][k], and (i,j,k)
    wherever some [E_i,E_j]^a and gamma[a][k] are both nonzero.
    """
    n = conn.dim
    gamma = conn.gamma
    fields = conn.frame.fields
    coords = conn.frame.chart.coords
    moved = [(j, k) for j, k in product(range(n), repeat=2) if vec_nonzero(gamma[j][k])]
    support = _pair_swaps(range(n), moved)
    support.update(
        (i, j, k)
        for i, j in product(range(n), repeat=2)
        for a, b in enumerate(brackets[i][j])
        if not b.is_zero
        for k in range(n)
        if vec_nonzero(gamma[a][k])
    )

    def entry(i, j, k):
        gjk, gik = gamma[j][k], gamma[i][k]
        terms = [(1, tuple(fields[i].apply(c) for c in gjk)), (-1, tuple(fields[j].apply(c) for c in gik))]
        terms += [(1, vec_scale(c, gamma[i][a])) for a, c in enumerate(gjk) if c.num]
        terms += [(-1, vec_scale(c, gamma[j][a])) for a, c in enumerate(gik) if c.num]
        terms += [(-1, vec_scale(b, gamma[a][k])) for a, b in enumerate(brackets[i][j]) if b.num]
        return vec_sum(coords, terms)

    return FrameTensor.build((1, 3), n, entry, support)


def ricci(riem: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """S(Y, Z) as the trace sum_a [R(E_a, Y)Z]^a (see the module docstring),
    one ``Expr.sum``; support: the (i, j) of every stored R(E_a,E_i)E_j."""
    n = metric.dim
    coords = metric.frame.chart.coords

    def entry(i, j):
        return Expr.sum(coords, [(1, riem.comp(a, i, j)[a]) for a in range(n)])

    return FrameTensor.build((0, 2), n, entry, {(i, j) for _, i, j in riem.comps})


def scalar_curvature(ric: FrameTensor, metric: FrameMetric) -> Expr:
    """r = sum_{a,b} g^{ab} S(E_a, E_b), one ``Expr.sum``."""
    ginv = metric.inverse()
    return Expr.sum(ric.zero.vars, [(1, ginv[a][b] * s) for (a, b), s in ric.comps.items()])


def ricci_operator(ric: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """Q with g(QX, Y) = S(X, Y); comps[i] are the frame components of Q E_i."""
    n = metric.dim
    return FrameTensor.build((1, 1), n, lambda i: metric.raise_form([ric.comp(i, j) for j in range(n)]))


def _pair_swaps(rows, pairs) -> set:
    """(x, y, z) and (y, x, z) for every x in rows and (y, z) in pairs."""
    return {t for x in rows for y, z in pairs for t in ((x, y, z), (y, x, z))}


def _antisymmetric(n: int, entry, support) -> FrameTensor:
    """The (1,3) tensor odd in its first two slots whose leaf at (x,y,z) with
    x < y is entry(x, y, z): evaluated on the x < y part of ``support`` and
    mirrored (``frame_geometry.mirror_pairs``)."""
    return mirror_pairs(FrameTensor.build((1, 3), n, entry, {t for t in support if t[0] < t[1]}), 0)


def m_projective(riem: FrameTensor, ric: FrameTensor, q_op: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """M(X,Y)Z = R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY] / (2(n-1)).

    Support: the stored R indices; (x,y,z) and (y,x,z) for every stored
    S(y,z) and any x; the same for every nonzero g[y][z] and stored row x of Q.
    Only its x < y part is evaluated; the rest is the mirror (module
    docstring).
    """
    n = metric.dim
    chart = metric.frame.chart
    factor = chart.one() / chart.const(2 * (n - 1))
    g = metric.g
    unit = [metric.frame.unit(i) for i in range(n)]

    def entry(x, y, z):
        corr = vec_scale(ric.comp(y, z), unit[x])
        corr = vec_sub(corr, vec_scale(ric.comp(x, z), unit[y]))
        corr = vec_add(corr, vec_scale(g[y][z], q_op.comp(x)))
        corr = vec_sub(corr, vec_scale(g[x][z], q_op.comp(y)))
        return vec_sub(riem.comp(x, y, z), vec_scale(factor, corr))

    support = set(riem.comps) | _pair_swaps(range(n), ric.comps)
    support |= _pair_swaps([x for (x,) in q_op.comps], metric.tensor.comps)
    return _antisymmetric(n, entry, support)


def concircular(riem: FrameTensor, scalar: Expr, metric: FrameMetric) -> FrameTensor:
    """C(X,Y)W = R(X,Y)W - r/(n(n-1)) {g(Y,W)X - g(X,W)Y}.

    Support: the stored R indices, and (x,y,w) and (y,x,w) for every nonzero
    g[y][w] and any x.  Only its x < y part is evaluated; the rest is the
    mirror (module docstring).
    """
    n = metric.dim
    chart = metric.frame.chart
    factor = scalar / chart.const(n * (n - 1))
    g = metric.g
    unit = [metric.frame.unit(i) for i in range(n)]

    def entry(x, y, w):
        corr = vec_sub(vec_scale(g[y][w], unit[x]), vec_scale(g[x][w], unit[y]))
        return vec_sub(riem.comp(x, y, w), vec_scale(factor, corr))

    support = set(riem.comps) | _pair_swaps(range(n), metric.tensor.comps)
    return _antisymmetric(n, entry, support)


class CurvatureStack(namedtuple("CurvatureStack", "riemann13 ricci q_operator scalar")):
    """riemann13, ricci, q_operator (FrameTensor); scalar (Expr)."""

    __slots__ = ()

    @classmethod
    def compute(cls, conn: ConnectionCoeffs, metric: FrameMetric, brackets) -> "CurvatureStack":
        riem = riemann(conn, brackets)
        ric = ricci(riem, metric)
        return cls(
            riemann13=riem,
            ricci=ric,
            q_operator=ricci_operator(ric, metric),
            scalar=scalar_curvature(ric, metric),
        )

    def self_check(
        self, metric: FrameMetric, conn: ConnectionCoeffs, nabla_r: FrameTensor | None = None
    ) -> list[tuple[str, bool]]:
        """Exact structural identities of the computed stack, as (name, holds)
        pairs; ``self_checks`` holds them and is loaded on the first call."""
        from .self_checks import self_check

        return self_check(self, metric, conn, nabla_r)
