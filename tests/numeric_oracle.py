"""Independent numeric twin of the tensor algebra.

Re-derives brackets, connection, curvature, Ricci data and derived tensors
in exact rational arithmetic at a point, from point-evaluated inputs
(component values and their directional derivatives).  The tensor algebra
itself is written out here from scratch, so agreement with the engine's
symbolic results checks every contraction and sign independently of the
symbolic pipeline.
"""

from __future__ import annotations

from fractions import Fraction


def gauss_solve(a, b):
    """Solve a square Fraction system; raises on singular input."""
    n = len(a)
    rows = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def mat_inverse(a):
    n = len(a)
    cols = [gauss_solve(a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class NumericTwin:
    def __init__(self, data, point: dict):
        self.data = data
        self.point = dict(point)
        self.n = data.dim
        frame = data.frame
        n = self.n
        self.coeffs = [[self.ev(c) for c in frame.fields[i].coeffs] for i in range(n)]
        self.g = [[self.ev(e) for e in row] for row in data.metric.g]
        self.ginv = mat_inverse(self.g)

    def ev(self, expr) -> Fraction:
        return expr.eval(self.point)

    # -- brackets --------------------------------------------------------

    def brackets_coordinate(self):
        """[E_i, E_j] coordinate components from evaluated coefficient
        derivatives: sum_a X^a d_a Y^b - Y^a d_a X^b."""
        data = self.data
        n = self.n
        chart = data.chart
        dcoef = [
            [[self.ev(data.frame.fields[i].coeffs[b].diff(v)) for v in chart.coords] for b in range(n)]
            for i in range(n)
        ]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                vec = []
                for b in range(n):
                    total = Fraction(0)
                    for a in range(n):
                        total += self.coeffs[i][a] * dcoef[j][b][a]
                        total -= self.coeffs[j][a] * dcoef[i][b][a]
                    vec.append(total)
                out[i][j] = vec
        return out

    def decompose(self, vec):
        """Frame components of a coordinate vector at the point."""
        n = self.n
        a = [[self.coeffs[i][j] for i in range(n)] for j in range(n)]
        return gauss_solve(a, vec)

    def brackets_frame(self):
        coord = self.brackets_coordinate()
        return [[self.decompose(coord[i][j]) for j in range(self.n)] for i in range(self.n)]

    # -- connection --------------------------------------------------------

    def gamma(self):
        """Koszul solve from evaluated metric derivatives and brackets."""
        data = self.data
        n = self.n
        dg = [
            [[self.ev(data.frame.fields[i].apply(data.metric.g[j][k])) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        cb = self.brackets_frame()

        def pair(u, v):
            return sum(u[a] * self.g[a][b] * v[b] for a in range(n) for b in range(n))

        def unit(k):
            return [Fraction(int(a == k)) for a in range(n)]

        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                w = []
                for z in range(n):
                    rhs = dg[i][j][z] + dg[j][i][z] - dg[z][i][j]
                    rhs += pair(cb[i][j], unit(z)) - pair(cb[i][z], unit(j)) - pair(cb[j][z], unit(i))
                    w.append(rhs / 2)
                out[i][j] = [sum(self.ginv[k][z] * w[z] for z in range(n)) for k in range(n)]
        return out

    # -- curvature ----------------------------------------------------------

    def riemann(self):
        """R(E_i,E_j)E_k from evaluated Gamma and its evaluated directional
        derivatives, plus the evaluated frame brackets."""
        data = self.data
        n = self.n
        gam = [[[self.ev(c) for c in data.connection.gamma[i][j]] for j in range(n)] for i in range(n)]
        dgam = [
            [
                [[self.ev(data.frame.fields[w].apply(data.connection.gamma[i][j][k])) for k in range(n)] for j in range(n)]
                for i in range(n)
            ]
            for w in range(n)
        ]
        cb = self.brackets_frame()
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    vec = []
                    for u in range(n):
                        total = dgam[i][j][k][u] - dgam[j][i][k][u]
                        for a in range(n):
                            total += gam[j][k][a] * gam[i][a][u]
                            total -= gam[i][k][a] * gam[j][a][u]
                            total -= cb[i][j][a] * gam[a][k][u]
                        vec.append(total)
                    out[i][j][k] = vec
        return out

    def ricci(self, riem):
        n = self.n
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                total = Fraction(0)
                for a in range(n):
                    for b in range(n):
                        paired = sum(riem[a][i][j][u] * self.g[u][b] for u in range(n))
                        total += self.ginv[a][b] * paired
                out[i][j] = total
        return out

    def scalar(self, ric):
        n = self.n
        return sum(self.ginv[a][b] * ric[a][b] for a in range(n) for b in range(n))

    def q_operator(self, ric):
        n = self.n
        return [[sum(self.ginv[k][a] * ric[i][a] for a in range(n)) for k in range(n)] for i in range(n)]

    def m_projective(self, riem, ric, q):
        n = self.n
        factor = Fraction(1, 2 * (n - 1))
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    vec = []
                    for u in range(n):
                        corr = ric[y][z] * Fraction(int(u == x)) - ric[x][z] * Fraction(int(u == y))
                        corr += self.g[y][z] * q[x][u] - self.g[x][z] * q[y][u]
                        vec.append(riem[x][y][z][u] - factor * corr)
                    out[x][y][z] = vec
        return out

    def concircular(self, riem, scalar):
        n = self.n
        factor = scalar / (n * (n - 1))
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for x in range(n):
            for y in range(n):
                for w in range(n):
                    vec = []
                    for u in range(n):
                        corr = self.g[y][w] * Fraction(int(u == x)) - self.g[x][w] * Fraction(int(u == y))
                        vec.append(riem[x][y][w][u] - factor * corr)
                    out[x][y][w] = vec
        return out

    def lie_metric(self, k):
        """(L_xi g)(E_i, E_j) with xi = E_k: E_k(g_ij) - g([E_k,E_i],E_j)
        - g(E_i,[E_k,E_j]), from the evaluated derivatives of g along E_k and
        the twin's own brackets."""
        n = self.n
        along = self.data.frame.fields[k]
        cb = self.brackets_frame()[k]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                dg = self.ev(along.apply(self.data.metric.g[i][j]))
                out[i][j] = dg - sum(cb[i][a] * self.g[a][j] for a in range(n)) - sum(self.g[i][b] * cb[j][b] for b in range(n))
        return out

    # -- covariant derivatives ----------------------------------------------

    def frame_derivatives(self, expr):
        """[E_w(expr)] at the point, for every frame direction w."""
        return [self.ev(f.apply(expr)) for f in self.data.frame.fields]

    def nabla_ricci(self, gam, ric):
        """(nabla_{E_w} S)(E_i, E_j) = E_w(S_ij) - S(nabla_w E_i, E_j) - S(E_i, nabla_w E_j),
        from evaluated derivatives of the engine's S and the twin's Gamma and S."""
        n = self.n
        sym = self.data.stack.ricci
        d = [[self.frame_derivatives(sym.comp(i, j)) for j in range(n)] for i in range(n)]
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for w in range(n):
            for i in range(n):
                for j in range(n):
                    total = d[i][j][w]
                    for a in range(n):
                        total -= gam[w][i][a] * ric[a][j] + gam[w][j][a] * ric[i][a]
                    out[w][i][j] = total
        return out

    def nabla_riemann(self, gam, riem):
        """(nabla_{E_w} R)(E_x, E_y)E_z in frame components u: the derivative
        E_w(R^u_xyz) of the engine's R, plus Gamma acting on the output
        vector, minus Gamma acting on each of the three arguments."""
        n = self.n
        sym = self.data.stack.riemann13
        out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    d = [self.frame_derivatives(c) for c in sym.comp(x, y, z)]
                    for w in range(n):
                        vec = []
                        for u in range(n):
                            total = d[u][w]
                            for a in range(n):
                                total += gam[w][a][u] * riem[x][y][z][a]
                                total -= gam[w][x][a] * riem[a][y][z][u]
                                total -= gam[w][y][a] * riem[x][a][z][u]
                                total -= gam[w][z][a] * riem[x][y][a][u]
                            vec.append(total)
                        out[w][x][y][z] = vec
        return out

    # -- recurrence conditions ------------------------------------------------
    #
    # Each residual is lhs - A(E_w) p - B(E_w) q of its condition, from the
    # twin's tensors and the values a, b of the 1-forms at the point.

    def xi_eta(self):
        """The frame components of xi, the designated frame field, and of
        eta = g(., xi)."""
        n = self.n
        xi = [Fraction(int(u == self.data.xi_index)) for u in range(n)]
        eta = [sum(self.g[a][b] * xi[b] for b in range(n)) for a in range(n)]
        return xi, eta

    def phi(self):
        """phi E_a = E_a + eta(E_a) xi, as the matrix phi[u][a] of frame
        components."""
        n = self.n
        xi, eta = self.xi_eta()
        return [[int(u == a) + eta[a] * xi[u] for a in range(n)] for u in range(n)]

    def sgr_residual(self, riem, nabla_r, a, b, phi=None):
        """(nabla_w R)(E_x,E_y)E_z - A(E_w) R(E_x,E_y)E_z - B(E_w) g(E_y,E_z) E_x
        in frame components u; with ``phi`` given, phi^2 of nabla_w R in place
        of nabla_w R (the SGPR condition)."""
        n = self.n

        def apply(m, vec):
            return [sum(m[u][k] * vec[k] for k in range(n)) for u in range(n)]

        out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for w in range(n):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        lhs = nabla_r[w][x][y][z]
                        if phi is not None:
                            lhs = apply(phi, apply(phi, lhs))
                        out[w][x][y][z] = [
                            lhs[u] - a[w] * riem[x][y][z][u] - b[w] * self.g[y][z] * int(u == x) for u in range(n)
                        ]
        return out

    def sgrr_residual(self, ric, nabla_s, a, b):
        """(nabla_w S)(E_i,E_j) - A(E_w) S(E_i,E_j) - n B(E_w) g(E_i,E_j)."""
        n = self.n
        return [
            [[nabla_s[w][i][j] - a[w] * ric[i][j] - n * b[w] * self.g[i][j] for j in range(n)] for i in range(n)]
            for w in range(n)
        ]

    # -- the xi-direction identity ---------------------------------------------

    def xi_identity_residual(self, nabla_r, coeff):
        """g((nabla_w R)(xi,E_y)E_z, xi) + c {g(E_y,E_z) + eta(E_y) eta(E_z)} eta(E_w)
        for the value c of 2 alpha rho - beta at the point, from the twin's
        nabla R and g: (nabla_w R)(xi,E_y)E_z is sum_a xi^a (nabla_w R)(E_a,E_y)E_z."""
        n = self.n
        xi, eta = self.xi_eta()
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for w in range(n):
            for y in range(n):
                for z in range(n):
                    vec = [sum(xi[a] * nabla_r[w][a][y][z][u] for a in range(n)) for u in range(n)]
                    lhs = sum(vec[u] * self.g[u][b] * xi[b] for u in range(n) for b in range(n))
                    out[w][y][z] = lhs + coeff * (self.g[y][z] + eta[y] * eta[z]) * eta[w]
        return out

    # -- the derived conditions ------------------------------------------------

    def r_xi_dot_m(self, riem, mproj):
        """eta((R(xi,E_x).M)(E_u,E_v)E_w): R(xi,E_x) acting on M as a
        derivation, eta of R(xi,X) M(U,V)W - M(R(xi,X)U,V)W - M(U,R(xi,X)V)W
        - M(U,V) R(xi,X)W, from the twin's R, M and g.  R(xi,E_x)E_k is
        sum_a xi^a R(E_a,E_x)E_k, and M is linear in each slot."""
        n = self.n
        xi, eta = self.xi_eta()
        rng = range(n)

        def eta_of(vec):
            return sum(eta[u] * vec[u] for u in rng)

        # act[x][k][t]: frame component t of R(xi,E_x)E_k
        act = [[[sum(xi[a] * riem[a][x][k][t] for a in rng) for t in rng] for k in rng] for x in rng]
        eta_act = [[eta_of(act[x][k]) for k in rng] for x in rng]
        eta_m = [[[eta_of(mproj[i][j][k]) for k in rng] for j in rng] for i in rng]
        out = [[[[None] * n for _ in rng] for _ in rng] for _ in rng]
        for x in rng:
            for u in rng:
                for v in rng:
                    for w in rng:
                        total = sum(mproj[u][v][w][k] * eta_act[x][k] for k in rng)
                        for t in rng:
                            total -= act[x][u][t] * eta_m[t][v][w]
                            total -= act[x][v][t] * eta_m[u][t][w]
                            total -= act[x][w][t] * eta_m[u][v][t]
                        out[x][u][v][w] = total
        return out

    def c_xi_dot_s(self, conc, ric):
        """S(C(xi,E_x)E_y, E_z) + S(C(xi,E_x)E_z, E_y), the engine's sign for
        C(xi,X).S, from the twin's C and S; C(xi,E_x)E_y is
        sum_a xi^a C(E_a,E_x)E_y."""
        n = self.n
        xi, _ = self.xi_eta()
        rng = range(n)
        cx = [[[sum(xi[a] * conc[a][x][y][t] for a in rng) for t in rng] for y in rng] for x in rng]
        return [
            [[sum(cx[x][y][t] * ric[t][z] + cx[x][z][t] * ric[t][y] for t in rng) for z in rng] for y in rng]
            for x in rng
        ]
