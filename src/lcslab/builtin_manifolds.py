"""Bundled manifold definitions, usable wherever a definition path is.

Two families are generated for every N from 3 to ``MAX_N`` (12, the largest
N that has been timed: there each command but ``conformance``, which only
``example51`` passes, took 96 to 178 ms cold, the median of three runs on a
2-CPU container):

* ``lcs<N>``: E_1 = t(x1 d/dx1 + x2 d/dx2), E_i = t d/dx_i for 1 < i < N,
  E_N = d/dt;
* ``desitter<N>``: E_i = t d/dx_i for every i, a constant-curvature (+1)
  frame whose concircular and M-projective tensors vanish identically, the
  constant-curvature oracle.

Both have the frame metric diag(1, ..., 1, -1) and xi = E_N.  The
coordinates are x, y, z at N = 3 and x1, ..., x_{N-1}, t above it.
``example51``, the engine's reference manifold, is ``lcs3`` under its own
name: E1 = z(x d/dx + y d/dy), E2 = z d/dy, E3 = d/dz.  ``flat3`` is
Minkowski space in an orthonormal coordinate frame.
"""

from __future__ import annotations

import re

MIN_N, MAX_N = 3, 12
BUILTIN_FORMS = f"example51, flat3, lcs<N> and desitter<N> with N from {MIN_N} to {MAX_N}"


def _definition(name: str, coords: list[str], frame: list[list[str]]) -> dict:
    n = len(coords)
    metric = [["-1" if i == j == n - 1 else "1" if i == j else "0" for j in range(n)] for i in range(n)]
    return {"name": name, "coords": coords, "frame": frame, "metric": metric, "xi": n}


def family(kind: str, n: int) -> dict:
    """The ``lcs`` or ``desitter`` definition of dimension n."""
    coords = ["x", "y", "z"] if n == 3 else [f"x{i}" for i in range(1, n)] + ["t"]
    t = coords[-1]
    frame = [[t if i == j else "0" for j in range(n)] for i in range(n)]
    if kind == "lcs":
        frame[0][:2] = [f"{t}*{coords[0]}", f"{t}*{coords[1]}"]
        frame[n - 1][n - 1] = "1"
    return _definition(f"{kind}{n}", coords, frame)


def builtin(name: str) -> dict | None:
    """The definition a built-in name stands for, or None."""
    if name == "example51":
        return {**family("lcs", 3), "name": name}
    if name == "flat3":
        return _definition(name, ["x", "y", "z"], [["1" if i == j else "0" for j in range(3)] for i in range(3)])
    match = re.fullmatch(r"(lcs|desitter)([1-9][0-9]?)", name)
    if match and MIN_N <= int(match[2]) <= MAX_N:
        return family(match[1], int(match[2]))
    return None
