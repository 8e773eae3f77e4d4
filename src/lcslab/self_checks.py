"""The structural self-checks of a curvature stack: the symmetries of R,
the first and second Bianchi identities, the symmetry of S and the defining
identity of Q.

``CurvatureStack.self_check`` loads this module on its first call, so only
the commands that report the self-checks (``curvature`` and
``conformance``) compile it; the method stays on the class, where a tracer
wraps it.

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
"""

from __future__ import annotations

from .frame_geometry import FrameMetric, FrameTensor, dot, vec_add, vec_nonzero, vec_sub
from .levi_civita import ConnectionCoeffs, cov_deriv_tensor


def self_check(
    stack, metric: FrameMetric, conn: ConnectionCoeffs, nabla_r: FrameTensor | None = None
) -> list[tuple[str, bool]]:
    """Exact structural identities of the curvature stack ``stack``.

    ``second-bianchi`` reads ``nabla_r``, by default the leaves of nabla R
    on its Bianchi support, derived here from ``conn`` (see the module
    docstring); a test passes its own to see the check fail.
    """
    n = metric.dim
    low = riemann_lowered(stack.riemann13, metric)

    def holds(name, tensor):
        return name, orbit_vanishes(tensor, PERMUTATION_IDENTITIES[name])

    checks = [
        holds("antisymmetry-first-pair", low),
        holds("antisymmetry-second-pair", low),
        holds("pair-symmetry", low),
        holds("first-bianchi", stack.riemann13),
        holds("ricci-symmetry", stack.ricci),
    ]
    ok = True
    for i in range(n):
        for j in range(n):
            paired = metric.pair(stack.q_operator.comp(i), metric.frame.unit(j))
            ok = ok and (paired - stack.ricci.comp(i, j)).is_zero
    checks.append(("ricci-operator-defining", ok))
    if nabla_r is None:
        nabla_r = cov_deriv_tensor(conn, stack.riemann13, bianchi=True)
    checks.append(holds("second-bianchi", nabla_r))
    return checks


def riemann_lowered(riem: FrameTensor, metric: FrameMetric) -> FrameTensor:
    """(0,4) components g(R(E_i,E_j)E_k, E_l); support: every stored
    R(E_i,E_j)E_k with each l."""
    n = metric.dim
    g = metric.g
    support = [(*idx, l) for idx in riem.comps for l in range(n)]
    return FrameTensor.build((0, 4), n, lambda i, j, k, l: dot(riem.comp(i, j, k), g[l]), support)


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
