"""lcslab: exact curvature engine for framed Lorentzian manifolds."""

from .symexpr import Expr, Var, arith, diff, eval_at, is_zero, parse, print_expr

__version__ = "0.1.0"
KERNEL_BACKEND = "python"  # the only polynomial kernels are the pure-Python ``_poly_py``

__all__ = [
    "KERNEL_BACKEND",
    "Expr",
    "Var",
    "arith",
    "diff",
    "eval_at",
    "is_zero",
    "parse",
    "print_expr",
    "__version__",
]
