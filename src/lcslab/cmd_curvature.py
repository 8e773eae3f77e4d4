"""The ``curvature`` report: connection, Riemann, Ricci, scalar curvature,
Ricci operator, the M-projective and concircular tensors, and the
structural self-checks of the curvature stack."""

from __future__ import annotations

from .cli import INFO, Report, add_self_checks, format_vector
from .manifold import ManifoldData


def add_upper_pairs(report: Report, label: str, title: str, tensor) -> int:
    """One entry per nonzero leaf T(E_i,E_j)E_k of a (1,3) tensor with i < j,
    in index order; returns the number added."""
    shown = 0
    for (i, j, k), vec in tensor.comps.items():
        if i < j:
            pos = f"{i + 1}{j + 1}{k + 1}"
            report.add(f"{label}.{pos}", INFO, f"{title}(E{i + 1},E{j + 1})E{k + 1}", engine=format_vector(vec))
            shown += 1
    return shown


def run(data: ManifoldData, report: Report, options: dict) -> None:
    n = data.dim
    for i in range(n):
        for j in range(n):
            report.add(
                f"connection.{i + 1}{j + 1}",
                INFO,
                f"nabla_E{i + 1} E{j + 1}",
                engine=format_vector(data.connection.gamma[i][j]),
            )
    if not add_upper_pairs(report, "riemann", "R", data.stack.riemann13):
        report.add("riemann", INFO, "curvature tensor", engine="0 (flat)")
    for (i, j), value in data.stack.ricci.comps.items():
        if i <= j:
            report.add(f"ricci.{i + 1}{j + 1}", INFO, f"S(E{i + 1},E{j + 1})", engine=str(value))
    report.add("scalar", INFO, "scalar curvature r", engine=str(data.stack.scalar))
    for i in range(n):
        report.add(f"ricci-operator.{i + 1}", INFO, f"Q E{i + 1}", engine=format_vector(data.stack.q_operator.comp(i)))
    for label, tensor in (("m-projective", data.m_projective), ("concircular", data.concircular)):
        if tensor.is_zero:
            report.add(label, INFO, f"{label} tensor", engine="0")
        else:
            add_upper_pairs(report, label, label, tensor)
    add_self_checks(data, report)
