"""lcslab: exact curvature engine for framed Lorentzian manifolds."""

__version__ = "0.1.0"
KERNEL_BACKEND = "python"  # the only polynomial kernels are the pure-Python ``_poly_py``
