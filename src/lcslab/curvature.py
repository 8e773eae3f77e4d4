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
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import NamedTuple

from .frame_geometry import FrameMetric, FrameTensor, combo, dot, vec_add, vec_scale, vec_sub
from .levi_civita import ConnectionCoeffs, cov_deriv_vector
from .symexpr import Expr


def riemann(conn: ConnectionCoeffs, brackets) -> FrameTensor:
    """R(E_i, E_j)E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k - nabla_{[E_i,E_j]} E_k."""
    n = conn.dim
    unit = [conn.frame.unit(i) for i in range(n)]

    def entry(i, j, k):
        first = cov_deriv_vector(conn, unit[i], conn.gamma[j][k])
        second = cov_deriv_vector(conn, unit[j], conn.gamma[i][k])
        return vec_sub(vec_sub(first, second), combo(brackets[i][j], lambda a: conn.gamma[a][k]))

    return FrameTensor.build((1, 3), n, entry)


def riemann_lowered(riem: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """(0,4) components g(R(E_i,E_j)E_k, E_l)."""
    g = metric.g
    return FrameTensor.build((0, 4), metric.dim, lambda i, j, k, l: dot(riem.comp(i, j, k), g[l]))


def ricci(riem: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """S(Y, Z) as the trace sum_a [R(E_a, Y)Z]^a (see the module docstring)."""
    n = metric.dim

    def entry(i, j):
        return reduce(operator.add, (riem.comp(a, i, j)[a] for a in range(n)))

    return FrameTensor.build((0, 2), n, entry)


def scalar_curvature(ric: FrameTensor, metric: FrameMetric) -> Expr:
    """r = sum_{a,b} g^{ab} S(E_a, E_b)."""
    ginv = metric.inverse()
    return dot([e for row in ginv for e in row], [e for row in ric.comps for e in row])


def ricci_operator(ric: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """Q with g(QX, Y) = S(X, Y); comps[i] are the frame components of Q E_i."""
    return FrameTensor.build((1, 1), metric.dim, lambda i: metric.raise_form(ric.comp(i)))


def m_projective(riem: FrameTensor, ric: FrameTensor, q_op: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """M(X,Y)Z = R(X,Y)Z - [S(Y,Z)X - S(X,Z)Y + g(Y,Z)QX - g(X,Z)QY] / (2(n-1))."""
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

    return FrameTensor.build((1, 3), n, entry)


def concircular(riem: FrameTensor, scalar: Expr, metric: FrameMetric) -> FrameTensor:
    """C(X,Y)W = R(X,Y)W - r/(n(n-1)) {g(Y,W)X - g(X,W)Y}."""
    n = metric.dim
    chart = metric.frame.chart
    factor = scalar / chart.const(n * (n - 1))
    g = metric.g
    unit = [metric.frame.unit(i) for i in range(n)]

    def entry(x, y, w):
        corr = vec_sub(vec_scale(g[y][w], unit[x]), vec_scale(g[x][w], unit[y]))
        return vec_sub(riem.comp(x, y, w), vec_scale(factor, corr))

    return FrameTensor.build((1, 3), n, entry)


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

    def self_check(self, metric: FrameMetric, nabla_r: FrameTensor | None = None) -> list[tuple[str, bool]]:
        """Exact structural identities of the computed stack."""
        n = metric.dim
        low = riemann_lowered(self.riemann13, metric)
        checks = []
        ok = all(
            (low.comp(i, j, k, l) + low.comp(j, i, k, l)).is_zero
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        )
        checks.append(("antisymmetry-first-pair", ok))
        ok = all(
            (low.comp(i, j, k, l) + low.comp(i, j, l, k)).is_zero
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        )
        checks.append(("antisymmetry-second-pair", ok))
        ok = all(
            (low.comp(i, j, k, l) - low.comp(k, l, i, j)).is_zero
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        )
        checks.append(("pair-symmetry", ok))
        ok = True
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    cyc = vec_add(
                        vec_add(self.riemann13.comp(i, j, k), self.riemann13.comp(j, k, i)),
                        self.riemann13.comp(k, i, j),
                    )
                    ok = ok and all(e.is_zero for e in cyc)
        checks.append(("first-bianchi", ok))
        ok = all((self.ricci.comp(i, j) - self.ricci.comp(j, i)).is_zero for i in range(n) for j in range(n))
        checks.append(("ricci-symmetry", ok))
        ok = True
        for i in range(n):
            for j in range(n):
                paired = metric.pair(self.q_operator.comp(i), metric.frame.unit(j))
                ok = ok and (paired - self.ricci.comp(i, j)).is_zero
        checks.append(("ricci-operator-defining", ok))
        if nabla_r is not None:
            ok = True
            for w in range(n):
                for x in range(n):
                    for y in range(n):
                        for z in range(n):
                            cyc = vec_add(
                                vec_add(nabla_r.comp(w, x, y, z), nabla_r.comp(x, y, w, z)),
                                nabla_r.comp(y, w, x, z),
                            )
                            ok = ok and all(e.is_zero for e in cyc)
            checks.append(("second-bianchi", ok))
        return checks
