"""Polynomial kernel backend selection.

The compiled extension ``_poly_cy`` is preferred when it imported cleanly;
``LCSLAB_PURE_PYTHON=1`` forces the pure backend.  Both backends produce
bit-identical results, so nothing downstream depends on the choice.
"""

from __future__ import annotations

import os

if os.environ.get("LCSLAB_PURE_PYTHON", "") not in ("", "0"):
    from . import _poly_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _poly_cy as _impl  # type: ignore[no-redef]

        BACKEND = "cython"
    except ImportError:
        from . import _poly_py as _impl  # type: ignore[no-redef]

        BACKEND = "python"

poly_add = _impl.poly_add
poly_sub = _impl.poly_sub
poly_neg = _impl.poly_neg
poly_mul = _impl.poly_mul
poly_mul_scalar = _impl.poly_mul_scalar
poly_lead = _impl.poly_lead
poly_divexact = _impl.poly_divexact
