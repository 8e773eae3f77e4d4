from __future__ import annotations

from functools import lru_cache

import pytest

from lcslab.frame_geometry import Chart, Frame, FrameMetric, VectorField
from lcslab.manifold import ManifoldData
from lcslab.symexpr import Var

XYZ = (Var("x"), Var("y"), Var("z"))
LORENTZ_DIAG = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1"))


def make_manifold(name: str, frame_rows, xi_index: int = 2, metric_rows=LORENTZ_DIAG, coords=XYZ) -> ManifoldData:
    chart = Chart(coords)
    fields = tuple(VectorField(chart, tuple(chart.parse(t) for t in row)) for row in frame_rows)
    frame = Frame(fields)
    g = [[chart.parse(t) for t in row] for row in metric_rows]
    return ManifoldData(name, frame, FrameMetric.checked(frame, g), xi_index)


def _n_family(name: str, n: int, rows) -> ManifoldData:
    """Coordinates x1..x_{n-1}, t; metric diag(1, ..., 1, -1); xi = En."""
    coords = tuple(Var(f"x{i}") for i in range(1, n)) + (Var("t"),)
    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        metric[i][i] = "-1" if i == n - 1 else "1"
    return make_manifold(f"{name}{n}", rows, xi_index=n - 1, metric_rows=metric, coords=coords)


@lru_cache(maxsize=None)
def make_lcs_n(n: int) -> ManifoldData:
    """lcsN: E1 = t(x1 d1 + x2 d2), Ei = t di, En = dt."""
    rows = [["0"] * n for _ in range(n)]
    rows[0][:2] = ["t*x1", "t*x2"]
    for i in range(1, n - 1):
        rows[i][i] = "t"
    rows[n - 1][n - 1] = "1"
    return _n_family("lcs", n, rows)


@lru_cache(maxsize=None)
def make_desitter_n(n: int) -> ManifoldData:
    """desitterN: Ei = t di for every i, so En = t dt."""
    rows = [["t" if i == j else "0" for j in range(n)] for i in range(n)]
    return _n_family("desitter", n, rows)


@pytest.fixture(scope="session")
def example51() -> ManifoldData:
    return make_manifold("example51", (("z*x", "z*y", "0"), ("0", "z", "0"), ("0", "0", "1")))


@pytest.fixture(scope="session")
def flat3() -> ManifoldData:
    return make_manifold("flat3", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


@pytest.fixture(scope="session")
def desitter3() -> ManifoldData:
    return make_manifold("desitter3", (("z", "0", "0"), ("0", "z", "0"), ("0", "0", "z")))
