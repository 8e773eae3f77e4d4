from __future__ import annotations

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


@pytest.fixture(scope="session")
def example51() -> ManifoldData:
    return make_manifold("example51", (("z*x", "z*y", "0"), ("0", "z", "0"), ("0", "0", "1")))


@pytest.fixture(scope="session")
def flat3() -> ManifoldData:
    return make_manifold("flat3", (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")))


@pytest.fixture(scope="session")
def desitter3() -> ManifoldData:
    return make_manifold("desitter3", (("z", "0", "0"), ("0", "z", "0"), ("0", "0", "z")))
