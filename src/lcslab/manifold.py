"""Bundled manifold state: frame, metric, connection and curvature caches.

Everything downstream (structure extraction, condition checkers, the CLI)
works from one of these.  Derived data is computed once, lazily, and the
underlying values are immutable, so sharing is safe.  Constructing one
empties the memos of Expr operations and polynomial GCDs (one reset, see
``polyops``), so the arithmetic of its stages does not depend on what ran
before it in the process.  Within one manifold, equal operations share one
result: no stage repeats a product, sum, difference or frame derivative of
nonzero operands that the same manifold already computed, up to the memo's
bound.
"""

from __future__ import annotations

from functools import cached_property

from .curvature import CurvatureStack
from .curvature import concircular as _concircular
from .curvature import m_projective as _m_projective
from .frame_geometry import Frame, FrameMetric, FrameTensor
from .levi_civita import ConnectionCoeffs, cov_deriv_tensor, frame_brackets, koszul
from .polyops import reset_memos


class ManifoldData:
    def __init__(self, name: str, frame: Frame, metric: FrameMetric, xi_index: int):
        if not 0 <= xi_index < frame.dim:
            raise ValueError(f"frame index {xi_index} out of range")
        self.name = name
        self.frame = frame
        self.metric = metric
        self.xi_index = xi_index
        reset_memos()

    @property
    def chart(self):
        return self.frame.chart

    @property
    def dim(self) -> int:
        return self.frame.dim

    @cached_property
    def brackets(self):
        return frame_brackets(self.frame)

    @cached_property
    def connection(self) -> ConnectionCoeffs:
        return koszul(self.frame, self.metric, self.brackets)

    @cached_property
    def stack(self) -> CurvatureStack:
        return CurvatureStack.compute(self.connection, self.metric, self.brackets)

    @cached_property
    def nabla_ricci(self) -> FrameTensor:
        return cov_deriv_tensor(self.connection, self.stack.ricci)

    @cached_property
    def nabla_riemann(self) -> FrameTensor:
        return cov_deriv_tensor(self.connection, self.stack.riemann13)

    @cached_property
    def m_projective(self) -> FrameTensor:
        return _m_projective(self.stack.riemann13, self.stack.ricci, self.stack.q_operator, self.metric)

    @cached_property
    def concircular(self) -> FrameTensor:
        return _concircular(self.stack.riemann13, self.stack.scalar, self.metric)

    @cached_property
    def structure(self):
        from .lcs_structure import NotLcsError, derive_structure

        st = derive_structure(self)
        if st.alpha.is_zero:
            raise NotLcsError("alpha is identically zero")
        return st

