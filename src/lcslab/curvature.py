"""Riemann, Ricci, scalar, Ricci-operator, M-projective and concircular
tensors, with their symmetry and Bianchi self-checks.

Sign and contraction conventions are pinned by a single anchor: on the
bundled reference manifold the Ricci value S(E_3, E_3) must come out as
-4/z^2, which also makes S(X, xi) = (n-1)(alpha^2 - rho) eta(X) hold.  The
contraction implementing that anchor is
S(Y, Z) = sum_{a,b} g^{ab} g(R(E_a, Y) Z, E_b).
It is computed as the trace S(Y, Z) = sum_a [R(E_a, Y) Z]^a, which is the
same number exactly: g(R(E_a, Y) Z, E_b) = sum_u [R(E_a, Y) Z]^u g_{ub}, and
sum_b g_{ub} g^{ab} is the identity, so only the u = a terms survive.

The self-checks walk the stored (nonzero) leaves only.  Each symmetry or
Bianchi identity is a signed sum of one tensor over permutations of its
index, and those permutations, with the identity, form a group: the sum at
a permuted index is the sum at the original one up to sign.  An index whose
orbit holds no stored leaf gives a sum of zeros, and any other index shares
its sum with a stored leaf, so checking at every stored leaf covers every
index, and one sum per orbit covers the whole orbit: ``orbit_vanishes``
sums at the first stored leaf of each orbit and skips its other members.
R is computed at every (i,j) pair, so the checks on R compare
independently computed leaves.  The x > y half of nabla R is a mirror of
its x < y half (see ``levi_civita``), yet ``second-bianchi`` still compares
independently computed leaves.  At distinct w, x, y its sum is, up to sign,
the sum at the sorted index w < x < y, whose terms (nabla_w R)(x,y),
(nabla_x R)(y,w) = -(nabla_x R)(w,y) and (nabla_y R)(w,x) are the computed
leaves (w,x,y), (x,w,y) and (y,w,x).  At a repeated direction the identity
says only that nabla R is antisymmetric in (x,y), which the mirror holds by
construction; R's own antisymmetry is checked on R.  So ``self_check``
derives nabla R from the connection on its Bianchi support only, the
leaves (w,x,y,z) with w not in {x, y} and their mirrors: every orbit sum
that can fail reads only those leaves, and the orbits at a repeated
direction, holding none, sum to zero as they do on the full tensor.

The memo of Expr operations (see ``symexpr``) makes none of these checks a
tautology: R is evaluated by its formula at every (i,j), and a memo hit
returns exactly the canonical result that recomputing the same operation on
the same canonical operands gives.  ``antisymmetry-first-pair``,
``pair-symmetry`` and ``second-bianchi`` therefore compare the same sums of
independently formed leaves with the memo as without it; the memo only
skips recomputing an operation already done.

Every tensor here is evaluated only on its support, derived from the stored
leaves of its inputs and the nonzero entries of gamma, the brackets and g
(each function's docstring gives its rule).  Outside it every term of the
formula has a zero operand; inside it the formula is the same, so each sum is
one canonical sum of the same nonzero terms, and every Expr is that of the
evaluation at all n^s indices.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import product
from typing import NamedTuple

from .frame_geometry import FrameMetric, FrameTensor, dot, vec_add, vec_nonzero, vec_scale, vec_sub, vec_sum
from .levi_civita import ConnectionCoeffs, cov_deriv_tensor
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
        terms += [(1, vec_scale(c, gamma[i][a])) for a, c in enumerate(gjk) if not c.is_zero]
        terms += [(-1, vec_scale(c, gamma[j][a])) for a, c in enumerate(gik) if not c.is_zero]
        terms += [(-1, vec_scale(b, gamma[a][k])) for a, b in enumerate(brackets[i][j]) if not b.is_zero]
        return vec_sum(coords, terms)

    return FrameTensor.build((1, 3), n, entry, support)


def riemann_lowered(riem: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """(0,4) components g(R(E_i,E_j)E_k, E_l); support: every stored
    R(E_i,E_j)E_k with each l."""
    n = metric.dim
    g = metric.g
    support = [(*idx, l) for idx in riem.comps for l in range(n)]
    return FrameTensor.build((0, 4), n, lambda i, j, k, l: dot(riem.comp(i, j, k), g[l]), support)


def ricci(riem: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """S(Y, Z) as the trace sum_a [R(E_a, Y)Z]^a (see the module docstring);
    support: the (i, j) of every stored R(E_a,E_i)E_j."""
    n = metric.dim

    def entry(i, j):
        return reduce(operator.add, (riem.comp(a, i, j)[a] for a in range(n)))

    return FrameTensor.build((0, 2), n, entry, {(i, j) for _, i, j in riem.comps})


def scalar_curvature(ric: FrameTensor, metric: FrameMetric) -> Expr:
    """r = sum_{a,b} g^{ab} S(E_a, E_b)."""
    ginv = metric.inverse()
    return sum((ginv[a][b] * s for (a, b), s in ric.comps.items()), ric.zero)


def ricci_operator(ric: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """Q with g(QX, Y) = S(X, Y); comps[i] are the frame components of Q E_i."""
    n = metric.dim
    return FrameTensor.build((1, 1), n, lambda i: metric.raise_form([ric.comp(i, j) for j in range(n)]))


def _pair_swaps(rows, pairs) -> set:
    """(x, y, z) and (y, x, z) for every x in rows and (y, z) in pairs."""
    return {t for x in rows for y, z in pairs for t in ((x, y, z), (y, x, z))}


def _metric_pairs(metric: FrameMetric) -> list:
    """The (y, z) with g[y][z] nonzero."""
    return [(y, z) for y, row in enumerate(metric.g) for z, e in enumerate(row) if not e.is_zero]


def m_projective(riem: FrameTensor, ric: FrameTensor, q_op: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """M(X,Y)Z = R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY] / (2(n-1)).

    Support: the stored R indices; (x,y,z) and (y,x,z) for every stored
    S(y,z) and any x; the same for every nonzero g[y][z] and stored row x of Q.
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
    support |= _pair_swaps([x for (x,) in q_op.comps], _metric_pairs(metric))
    return FrameTensor.build((1, 3), n, entry, support)


def concircular(riem: FrameTensor, scalar: Expr, metric: FrameMetric) -> FrameTensor:
    """C(X,Y)W = R(X,Y)W - r/(n(n-1)) {g(Y,W)X - g(X,W)Y}.

    Support: the stored R indices, and (x,y,w) and (y,x,w) for every nonzero
    g[y][w] and any x.
    """
    n = metric.dim
    chart = metric.frame.chart
    factor = scalar / chart.const(n * (n - 1))
    g = metric.g
    unit = [metric.frame.unit(i) for i in range(n)]

    def entry(x, y, w):
        corr = vec_sub(vec_scale(g[y][w], unit[x]), vec_scale(g[x][w], unit[y]))
        return vec_sub(riem.comp(x, y, w), vec_scale(factor, corr))

    support = set(riem.comps) | _pair_swaps(range(n), _metric_pairs(metric))
    return FrameTensor.build((1, 3), n, entry, support)


class CurvatureStack(NamedTuple):
    riemann13: FrameTensor
    ricci: FrameTensor
    q_operator: FrameTensor
    scalar: Expr

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
        """Exact structural identities of the computed stack.

        ``second-bianchi`` reads ``nabla_r``, by default the leaves of nabla R
        on its Bianchi support, derived here from ``conn`` (see the module
        docstring); a test passes its own to see the check fail.
        """
        n = metric.dim
        low = riemann_lowered(self.riemann13, metric)

        def holds(name, tensor):
            return name, orbit_vanishes(tensor, PERMUTATION_IDENTITIES[name])

        checks = [
            holds("antisymmetry-first-pair", low),
            holds("antisymmetry-second-pair", low),
            holds("pair-symmetry", low),
            holds("first-bianchi", self.riemann13),
            holds("ricci-symmetry", self.ricci),
        ]
        ok = True
        for i in range(n):
            for j in range(n):
                paired = metric.pair(self.q_operator.comp(i), metric.frame.unit(j))
                ok = ok and (paired - self.ricci.comp(i, j)).is_zero
        checks.append(("ricci-operator-defining", ok))
        if nabla_r is None:
            nabla_r = cov_deriv_tensor(conn, self.riemann13, bianchi=True)
        checks.append(holds("second-bianchi", nabla_r))
        return checks


# Each identity says sum_t sign_t T(idx o perm_t) = 0 at every index, where
# idx o perm reads slot perm[m] of idx into slot m.
PERMUTATION_IDENTITIES = {
    # R_ijkl + R_jikl, R_ijkl + R_ijlk and R_ijkl - R_klij on the lowered R
    "antisymmetry-first-pair": ((1, (0, 1, 2, 3)), (1, (1, 0, 2, 3))),
    "antisymmetry-second-pair": ((1, (0, 1, 2, 3)), (1, (0, 1, 3, 2))),
    "pair-symmetry": ((1, (0, 1, 2, 3)), (-1, (2, 3, 0, 1))),
    # R(X,Y)Z + R(Y,Z)X + R(Z,X)Y
    "first-bianchi": ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1))),
    "ricci-symmetry": ((1, (0, 1)), (-1, (1, 0))),
    # (nabla_W R)(X,Y) + (nabla_X R)(Y,W) + (nabla_Y R)(W,X)
    "second-bianchi": ((1, (0, 1, 2, 3)), (1, (1, 2, 0, 3)), (1, (2, 0, 1, 3))),
}


def orbit_vanishes(tensor: FrameTensor, terms) -> bool:
    """True when sum_t sign_t T(idx o perm_t) is zero at every index, for
    (sign, perm) terms whose permutations form a group with the identity.

    Only the stored leaves are visited, one orbit at a time (see the module
    docstring): the signs form a character of the group, so the sum at any
    member idx o perm_t of a summed orbit is sign_t times the sum at idx,
    and the other members are skipped.  A sign is applied by adding or
    subtracting the leaf, never by multiplying.
    """
    vector = tensor.valence[0] == 1
    zero = tensor.zero if vector else (tensor.zero,)  # scalars ride along as 1-vectors
    seen = set()
    for idx in tensor.comps:
        if idx in seen:
            continue
        orbit = [tuple(idx[p] for p in perm) for _, perm in terms]
        seen.update(orbit)
        total = zero
        for (sign, _), moved in zip(terms, orbit):
            value = tensor.comp(*moved)
            total = (vec_add if sign > 0 else vec_sub)(total, value if vector else (value,))
        if vec_nonzero(total):
            return False
    return True
