from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest

import lcslab
from lcslab.cli import ManifoldDef, build_manifold, load
from lcslab.manifold import ManifoldData

SRC = Path(lcslab.__file__).parents[1]  # where the lcslab under test lives

LORENTZ_DIAG = (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "-1"))


@lru_cache(maxsize=None)
def builtin(name: str) -> ManifoldData:
    """A bundled manifold, loaded as the CLI loads it."""
    return build_manifold(load(name))


def make_manifold(name: str, frame_rows, xi_index: int = 2, metric_rows=LORENTZ_DIAG) -> ManifoldData:
    """An ad hoc 3-D frame through the CLI's parse, validation and signature check."""
    return build_manifold(ManifoldDef(name, ["x", "y", "z"], frame_rows, metric_rows, xi_index + 1))


@pytest.fixture(scope="session")
def example51() -> ManifoldData:
    return builtin("example51")


@pytest.fixture(scope="session")
def flat3() -> ManifoldData:
    return builtin("flat3")


@pytest.fixture(scope="session")
def desitter3() -> ManifoldData:
    return builtin("desitter3")
