"""Bundled manifold definitions, usable wherever a definition path is.

``example51`` is the engine's reference manifold: the frame
E1 = z(x d/dx + y d/dy), E2 = z d/dy, E3 = d/dz on R^3 with the Lorentzian
frame metric diag(1, 1, -1) and xi = E3.  ``flat3`` is Minkowski space in
an orthonormal coordinate frame.  ``desitter3`` is a constant-curvature
(+1) Lorentzian frame (E_i = z d/dx_i on the upper half space), used as
the constant-curvature oracle: its concircular and M-projective tensors
vanish identically.
"""

from __future__ import annotations

BUILTINS: dict[str, dict] = {
    "example51": {
        "name": "example51",
        "coords": ["x", "y", "z"],
        "frame": [
            ["z*x", "z*y", "0"],
            ["0", "z", "0"],
            ["0", "0", "1"],
        ],
        "metric": [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "-1"],
        ],
        "xi": 3,
        "sample_point": {"x": "2", "y": "2", "z": "2"},
    },
    "flat3": {
        "name": "flat3",
        "coords": ["x", "y", "z"],
        "frame": [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ],
        "metric": [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "-1"],
        ],
        "xi": 3,
        "sample_point": {"x": "2", "y": "2", "z": "2"},
    },
    "desitter3": {
        "name": "desitter3",
        "coords": ["x", "y", "z"],
        "frame": [
            ["z", "0", "0"],
            ["0", "z", "0"],
            ["0", "0", "z"],
        ],
        "metric": [
            ["1", "0", "0"],
            ["0", "1", "0"],
            ["0", "0", "-1"],
        ],
        "xi": 3,
        "sample_point": {"x": "2", "y": "2", "z": "2"},
    },
}


def builtin_names() -> list[str]:
    return sorted(BUILTINS)
