#!/usr/bin/env python3
"""Mutation gate: every mutant in ``MUTANTS`` must make one of its tests fail.

Run from the root of a checkout:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only the named ones

pytest does not collect this file (its name has no ``test_`` prefix).  Each
row gives a mutant's name, the file it edits (relative to the checkout), the
exact text it replaces, which must occur once in that file, the new text,
and the tests that must catch it.  The script runs one child per CPU: it
copies ``src``, ``tests`` and ``perfbench`` into a temporary directory once
per worker, and each worker applies one mutant at a time alone to its own
copy, runs only that mutant's tests there (stopping at the first failure),
and restores the file.  The tests must first pass on an unmutated copy,
before any mutant runs.  The verdicts are printed in the rows' order.  A
mutant is killed when pytest reports a failing test; it survives when
every test passes.  Children write no
bytecode, so no cached module stands in for a mutated one.  The exit status
is 0 when every mutant is killed, 1 otherwise, including a mutant whose
text is not found, whose tests cannot be collected, or whose child runs
past ``TIMEOUT`` or out of ``MEMORY``.
"""

from __future__ import annotations

import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
# Each child is stopped after TIMEOUT seconds (the unmutated run after
# TIMEOUT per test it runs), and a mutant whose child is stopped counts as
# not killed: a mutant that makes a test loop forever fails the gate instead
# of hanging it.  The slowest row took 1.5-1.7 s on a 2-CPU container.
TIMEOUT = 30
# Each child's address space is bounded by MEMORY bytes (RLIMIT_AS, set by
# the child itself before it imports pytest), and a child that runs out of
# memory, ending in MemoryError or killed by SIGKILL (the kernel's
# out-of-memory killer), counts as not killed, as a stopped one does: a
# mutant that makes a structure grow without bound fails the gate instead of
# taking the machine's memory.  The unmutated child, which runs every row's
# tests, peaked at 97 MB of address space (92 MB resident) on a 2-CPU
# container, and the largest mutant child at 82 MB, so the bound leaves five
# times the clean peak.
MEMORY = 512 * 2**20


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


# At n = 3 each of the first seven coefficients coincides with its mutant:
# n^2+2 = 3n+2 = 11, 2(n-1) = n+1 = 4, n(n-1) = 2n = 6, (n+1)/n = 2(n-1)/n
# and n-1 = 2, so only a check at some n != 3 catches them.
MUTANTS = (
    Mutant(
        "sgr-n2-plus-2",
        "src/lcslab/conditions.py",
        "chart.const(n * n + 2) * b_xi",
        "chart.const(3 * n + 2) * b_xi",
        ("tests/test_conditions.py::TestFormulasAtHigherDimension::test_sgr_predictions",),
    ),
    Mutant(
        "sgr-2-n-minus-1",
        "src/lcslab/conditions.py",
        "chart.const(2 * (n - 1)) * k2",
        "chart.const(n + 1) * k2",
        ("tests/test_conditions.py::TestFormulasAtHigherDimension::test_sgr_predictions",),
    ),
    # the SGR prediction reads A(xi) for the paper's eta(rho1); the check
    # against the paper's quotient catches these two at every n, 3 included
    Mutant(
        "sgr-2-n-minus-1-halved",
        "src/lcslab/conditions.py",
        "chart.const(2 * (n - 1)) * k2",
        "chart.const(n - 1) * k2",
        ("tests/test_conditions.py::TestSgrPredictions::test_prediction_is_the_papers_quotient",),
    ),
    Mutant(
        "sgr-divides-by-b-xi",
        "src/lcslab/conditions.py",
        "* b_xi / a_xi",
        "* b_xi / b_xi",
        ("tests/test_conditions.py::TestSgrPredictions::test_prediction_is_the_papers_quotient",),
    ),
    Mutant(
        "cxs-guard-n-n-minus-1",
        "src/lcslab/derived_conditions.py",
        "guard_cxs = chart.const(n * (n - 1)) * guard_rxm + 1",
        "guard_cxs = chart.const(2 * n) * guard_rxm + 1",
        ("tests/test_conditions.py::TestFormulasAtHigherDimension::test_derived_conditions_guard",),
    ),
    Mutant(
        "soliton-lambda-n-plus-1",
        "src/lcslab/soliton.py",
        "printed = half_p + alpha * Expr.ratio(vs, n + 1, n)",
        "printed = half_p + alpha * Expr.ratio(vs, 2 * (n - 1), n)",
        ("tests/test_conditions.py::TestFormulasAtHigherDimension::test_soliton_lambda_and_k",),
    ),
    Mutant(
        "concircular-n-n-minus-1",
        "src/lcslab/curvature.py",
        "factor = scalar / chart.const(n * (n - 1))",
        "factor = scalar / chart.const(2 * n)",
        ("tests/test_acceptance.py::test_numeric_cross_check_lcs_n",),
    ),
    Mutant(
        "m-projective-2-n-minus-1",
        "src/lcslab/curvature.py",
        "factor = chart.one() / chart.const(2 * (n - 1))",
        "factor = chart.one() / chart.const(n + 1)",
        ("tests/test_acceptance.py::test_numeric_cross_check_lcs_n",),
    ),
    Mutant(
        "ricci-into-xi-n-minus-1",
        "src/lcslab/axioms.py",
        "n_minus_1 = data.chart.const(n - 1)",
        "n_minus_1 = data.chart.const(2)",
        ("tests/test_lcs_structure.py::TestVerifyAxioms::test_all_pass_on_lcs_n",),
    ),
    # the axiom walker: each mutant loses the failure of some tampered
    # structure that the per-axiom index loops of the reference model report
    Mutant(
        "axiom-walker-reads-only-component-0",
        "src/lcslab/axioms.py",
        "for e in (r if isinstance(r, tuple) else (r,))",
        "for e in (r[:1] if isinstance(r, tuple) else (r,))",
        ("tests/test_lcs_structure.py::TestAxiomFailures::test_every_axiom_matches_the_reference_model",),
    ),
    Mutant(
        "axiom-walker-drops-the-last-index",
        "src/lcslab/axioms.py",
        "product(range(n), repeat=arity)",
        "product(range(n - 1), repeat=arity)",
        ("tests/test_lcs_structure.py::TestAxiomFailures::test_every_axiom_matches_the_reference_model",),
    ),
    Mutant(
        "axiom-walker-checks-only-the-first-residual",
        "src/lcslab/axioms.py",
        "for r in values for e",
        "for r in list(values)[:1] for e",
        ("tests/test_lcs_structure.py::TestAxiomFailures::test_every_axiom_matches_the_reference_model",),
    ),
    Mutant(
        "axiom-alpha-zero-not-refused",
        "src/lcslab/axioms.py",
        'if axiom == "eta-covariant-derivative" and st.alpha.is_zero:',
        'if axiom == "eta-covariant-derivative" and False:',
        ("tests/test_lcs_structure.py::TestAxiomFailures::test_every_axiom_matches_the_reference_model",),
    ),
    # the derivation routine, and the half rule's one helper, which it
    # shares with M and C: each of its mutants is caught by the tests of both
    Mutant(
        "half-rule-mirror-not-negated",
        "src/lcslab/frame_geometry.py",
        "tuple(-e for e in leaf) for idx, leaf in tensor.comps.items()",
        "tuple(e for e in leaf) for idx, leaf in tensor.comps.items()",
        ("tests/test_levi_civita.py::TestCovDerivTensor::test_half_rule_equals_the_formula_at_every_index",),
    ),
    Mutant(
        "m-c-mirror-not-negated",
        "src/lcslab/frame_geometry.py",
        "tuple(-e for e in leaf) for idx, leaf in tensor.comps.items()",
        "tuple(e for e in leaf) for idx, leaf in tensor.comps.items()",
        ("tests/test_curvature.py::test_m_projective_and_concircular_half_rule_equals_the_formula",),
    ),
    Mutant(
        "m-c-mirror-left-out",
        "src/lcslab/curvature.py",
        "return mirror_pairs(FrameTensor.build((1, 3), n, entry, {t for t in support if t[0] < t[1]}), 0)",
        "return FrameTensor.build((1, 3), n, entry, {t for t in support if t[0] < t[1]})",
        ("tests/test_curvature.py::test_m_projective_and_concircular_half_rule_equals_the_formula",),
    ),
    Mutant(
        "cxs-not-negated",
        "src/lcslab/derived_conditions.py",
        "comps={idx: -leaf for idx, leaf in c_xi_s.comps.items()}",
        "comps={idx: leaf for idx, leaf in c_xi_s.comps.items()}",
        ("tests/test_acceptance.py::test_derived_condition_tensors_match_the_twin",),
    ),
    Mutant(
        "derivation-output-vector-term-dropped",
        "src/lcslab/levi_civita.py",
        "terms += [(1, vec_scale(c, ops[w][a])) for a, c in enumerate(base) if c.num]",
        "pass",
        ("tests/test_acceptance.py::test_numeric_cross_check_lcs_n",),
    ),
    Mutant(
        "nabla-riemann-mirror-left-out",
        "src/lcslab/frame_geometry.py",
        "return tensor._replace(comps=dict(sorted({**tensor.comps, **mirror}.items())))",
        "return tensor",
        ("tests/test_levi_civita.py::TestCovDerivTensor::test_half_rule_equals_the_formula_at_every_index",),
    ),
    # the self-checks on their support: the restriction must keep every leaf
    # that second-bianchi can fail on, and one sum per orbit must still sum
    Mutant(
        "bianchi-support-drops-x-w-y-leaf",
        "src/lcslab/self_checks.py",
        "return w not in (x, y)",
        "return w not in (x, y) and not x < w < y",
        ("tests/test_curvature.py::TestRiemann::test_structural_identities",),
    ),
    Mutant(
        "second-bianchi-reads-repeated-directions",  # a tautology: the mirror holds it
        "src/lcslab/self_checks.py",
        "return w not in (x, y)",
        "return w in (x, y)",
        ("tests/test_curvature.py::TestRiemann::test_second_bianchi_reads_the_derivative_of_the_stack_riemann",),
    ),
    # the derived conditions read xi's slot k: the xi-slice of nabla R must
    # keep both halves, and each contraction with xi must read slot k
    Mutant(
        "xi-slice-drops-mirrored-half",
        "src/lcslab/derived_conditions.py",
        "lambda w, x, y: k in (x, y)",
        "lambda w, x, y: x == k",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "xi-identity-reads-swapped-slots",
        "src/lcslab/derived_conditions.py",
        "nabla_r.comp(w, k, y, z)",
        "nabla_r.comp(w, y, k, z)",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    # the identity's coefficient is d(alpha^2 - rho) = (2 alpha rho - beta) eta
    Mutant(
        "xi-identity-beta-sign",
        "src/lcslab/derived_conditions.py",
        "coeff = 2 * st.alpha * st.rho - (st.beta if beta is None else beta)",
        "coeff = 2 * st.alpha * st.rho + (st.beta if beta is None else beta)",
        (
            "tests/test_conditions.py::TestXiDerivativeIdentity::"
            "test_engine_beta_passes_and_flipped_beta_fails_where_nonzero",
        ),
    ),
    Mutant(
        "xi-action-reads-slot-0",
        "src/lcslab/derived_conditions.py",
        "tensor.comp(k, x, y)",
        "tensor.comp(0, x, y)",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    # xi is the frame field E_k: L_xi g must read bracket row k and the
    # structure column k of g (every built-in has k = n - 1, so only an input
    # with xi elsewhere tells them from the last row and column), and the
    # eta-Einstein residual needs k, which exists only with a structure
    Mutant(
        "lie-xi-reads-last-bracket-row",
        "src/lcslab/levi_civita.py",
        "derivation(metric.tensor, [brackets[k]], [frame.fields[k]])",
        "derivation(metric.tensor, [brackets[-1]], [frame.fields[k]])",
        ("tests/test_levi_civita.py::TestLieDerivative::test_xi_at_every_index_reads_its_own_brackets",),
    ),
    Mutant(
        "structure-eta-reads-last-column",
        "src/lcslab/lcs_structure.py",
        "eta = tuple(row[k] for row in g)",
        "eta = tuple(row[-1] for row in g)",
        ("tests/test_lcs_structure.py::TestDeriveStructure::test_xi_at_every_index",),
    ),
    Mutant(
        "soliton-eta-einstein-without-k",
        "src/lcslab/soliton.py",
        "if k is not None:",
        "if True:",
        ("tests/test_cli.py::TestExitCodes::test_soliton_explicit_lambda",),
    ),
    # L_xi g + 2 S - c g is the residual of lhs = L_xi g, p = S, u = -2
    Mutant(
        "soliton-lie-term-sign",
        "src/lcslab/soliton.py",
        "data.chart.const(-2)",
        "data.chart.const(2)",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "orbit-marked-seen-not-summed",
        "src/lcslab/self_checks.py",
        "        seen.update(orbit)\n",
        "        seen.update(orbit)\n        continue\n",
        ("tests/test_curvature.py::TestRiemann::test_every_bianchi_support_leaf_is_read",),
    ),
    Mutant(
        "mul-memo-key-without-second-operand",
        "src/lcslab/symexpr.py",
        "key = (_MUL, self, o) if hash(self) <= hash(o) else (_MUL, o, self)",
        "key = (_MUL, self) if hash(self) <= hash(o) else (_MUL, o)",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "sub-memo-key-shared-with-add",
        "src/lcslab/symexpr.py",
        "key = (_SUB, self, o)",
        "key = (_ADD, self, o)",
        ("tests/test_memo.py::test_memoised_operations_equal_the_same_operations_with_the_memo_emptied",),
    ),
    Mutant(
        "derivative-memo-key-without-field",
        "src/lcslab/frame_geometry.py",
        "key = (self, f)",
        "key = f",
        ("tests/test_memo.py::test_memoised_operations_equal_the_same_operations_with_the_memo_emptied",),
    ),
    Mutant(
        "rxm-sign-flipped",
        "src/lcslab/derived_conditions.py",
        "lambda *idx: st.eta_of(r_xi_m.comp(*idx))",
        "lambda *idx: -st.eta_of(r_xi_m.comp(*idx))",
        ("tests/test_acceptance.py::test_derived_condition_tensors_match_the_twin",),
    ),
    # the one routine that reports a gated consequence: assert only under a
    # zero hypothesis residual, never where the entry is blocked, by its truth
    Mutant(
        "gate-asserts-under-a-nonzero-hypothesis",
        "src/lcslab/cli.py",
        "    elif hypothesis:\n",
        "    elif True:\n",
        ("tests/test_cli.py::TestExitCodes::test_check_sgr_predictions_with_nonzero_forms",),
    ),
    Mutant(
        "gate-ignores-blocked",
        "src/lcslab/cli.py",
        "    if blocked:\n        report.add(check_id, INFO, blocked_title, note=blocked)\n",
        "    if False:\n        report.add(check_id, INFO, blocked_title, note=blocked)\n",
        (
            "tests/test_cli.py::TestExitCodes::test_check_sgr_predictions_with_nonzero_forms",
            "tests/test_cli.py::test_json_reports_match_recorded_digests",
        ),
    ),
    Mutant(
        "gate-swaps-pass-and-fail",
        "src/lcslab/cli.py",
        "PASS if holds else FAIL",
        "FAIL if holds else PASS",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    # the two-unknown solver only solves: fit_two returns the residual of its
    # solution, which the classifier checks and the fit reads in order, its
    # first nonzero component the witness; the residual is formed on its
    # support, the leaves of lhs, of p where u != 0 and of q where v != 0,
    # and fit_two solves on the rows of the leaves stored in p or q
    Mutant(
        "classify-without-row-check",
        "src/lcslab/einstein.py",
        "    if not res.is_zero:\n",
        "    if False:\n",
        ("tests/test_lcs_structure.py::TestClassify::test_neither_when_no_solution",),
    ),
    Mutant(
        "fit-walks-leaves-from-the-last",
        "src/lcslab/conditions.py",
        "idx, _ = res.first_nonzero()",
        "idx, _ = res._replace(comps=dict(reversed(res.comps.items()))).first_nonzero()",
        ("tests/test_conditions.py::TestFitOutcomes::test_witness_at_higher_dimension",),
    ),
    Mutant(
        "fit-returns-pivot-solution-unchecked",
        "src/lcslab/conditions.py",
        "        if idx is not None:\n",
        "        if False:\n",
        ("tests/test_conditions.py::TestFitOutcomes::test_witness_at_higher_dimension",),
    ),
    # at (w; x, x, z) R and nabla_w R vanish, so only q is stored there
    Mutant(
        "residual-support-drops-q",
        "src/lcslab/frame_geometry.py",
        "for c, t in ((u, p), (v, q))",
        "for c, t in ((u, p),)",
        ("tests/test_conditions.py::TestSgrLemma::test_diagonal_residual_is_minus_b_g_e_x",),
    ),
    Mutant(
        "residual-support-drops-p",
        "src/lcslab/frame_geometry.py",
        "for c, t in ((u, p), (v, q))",
        "for c, t in ((v, q),)",
        ("tests/test_same_arithmetic.py::test_residual_stores_the_leaves_of_the_all_index_build",),
    ),
    # fit_two finds the pivot rows of (p, q) once and reads each lhs's own
    # right-hand sides at them
    Mutant(
        "fit-two-solves-every-lhs-with-the-first-rhs",
        "src/lcslab/einstein.py",
        "        rhs = [lhs.at(row) for row in pivots]\n",
        "        rhs = rhs if \"rhs\" in locals() else [lhs.at(row) for row in pivots]\n",
        ("tests/test_lcs_structure.py::TestFitTwo::test_several_right_hand_sides_solve_as_each_alone",),
    ),
    Mutant(
        "fit-rows-from-p-only",
        "src/lcslab/einstein.py",
        "sorted(p.comps.keys() | q.comps.keys())",
        "sorted(p.comps.keys())",
        ("tests/test_conditions.py::TestFitOutcomes::test_fit_matches_the_reference_model",),
    ),
    # the cold start: a command module must call the entry points through
    # cli, where a tracer wraps them; `python -m lcslab.cli` must register
    # itself as lcslab.cli; a cold command runs with the collector off
    Mutant(
        "recurrence-fit-bound-at-import",
        "src/lcslab/cmd_fit.py",
        "def run(data: ManifoldData, report: Report, options: dict) -> None:\n"
        "    kind = options[\"kind\"]\n"
        "    result = cli.recurrence_fit(data, kind)\n",
        "def run(data: ManifoldData, report: Report, options: dict, recurrence_fit=cli.recurrence_fit) -> None:\n"
        "    kind = options[\"kind\"]\n"
        "    result = recurrence_fit(data, kind)\n",
        ("tests/test_perfbench_hooks.py::test_every_command_produces_its_spans",),
    ),
    # each verdict is its residual, read by the report code: a reader that
    # reads another value, or inverts the one it reads, changes a report
    Mutant(
        "check-lcs-axiom-status-inverted",
        "src/lcslab/cmd_check_lcs.py",
        "FAIL if check.detail else PASS",
        "PASS if check.detail else FAIL",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "soliton-lambda-difference-reversed",
        "src/lcslab/cmd_soliton.py",
        "engine=str(lam_printed - lam_traced),",
        "engine=str(lam_traced - lam_printed),",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "soliton-residual-reads-eta-einstein",
        "src/lcslab/cmd_soliton.py",
        "residual=residual_excerpt(residual),",
        "residual=residual_excerpt(eta_residual or residual),",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "xi-identity-status-reads-the-coefficient",
        "src/lcslab/cmd_derived_conditions.py",
        "PASS if residual.is_zero else FAIL,",
        "PASS if coefficient.is_zero else FAIL,",
        ("tests/test_cli.py::test_json_reports_match_recorded_digests",),
    ),
    Mutant(
        "opposition-holds-inverted",
        "src/lcslab/cmd_check.py",
        "all(e.is_zero for e in pred.opposition or ())",
        "not all(e.is_zero for e in pred.opposition or ())",
        (
            "tests/test_conditions.py::TestGateReachability::"
            "test_every_gate_goes_through_the_routine_and_is_reached_only_trivially",
        ),
    ),
    # the duals are raised where fit reports them
    Mutant(
        "fit-duals-report-a-as-rho1",
        "src/lcslab/cmd_fit.py",
        'engine=f"{format_vector(rho1)}; ',
        'engine=f"{format_vector(result.a)}; ',
        ("tests/test_conditions.py::TestSgrLemma::test_fit_duals_raise_the_fitted_forms",),
    ),
    Mutant(
        "main-module-not-registered",
        "src/lcslab/cli.py",
        '    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])\n',
        "",
        ("tests/test_cli.py::test_module_run_refuses_like_the_console_script",),
    ),
    Mutant(
        "cold-command-collector-left-on",
        "src/lcslab/cli.py",
        "    gc.disable()\n",
        "",
        ("tests/test_cli.py::test_cold_command_runs_without_the_collector",),
    ),
    # a cold command ends the process itself, after flushing its report
    Mutant(
        "cold-command-returns-instead-of-exiting",
        "src/lcslab/cli.py",
        "    os._exit(code)\n",
        "    return code\n",
        ("tests/test_cli.py::test_cold_command_exits_as_main_returns",),
    ),
    Mutant(
        "cold-command-exits-without-flushing",
        "src/lcslab/cli.py",
        "        sys.stdout.flush()\n",
        "",
        ("tests/test_cli.py::test_cold_command_exits_as_main_returns",),
    ),
    Mutant(
        "cold-command-exits-after-a-failed-flush",
        "src/lcslab/cli.py",
        "        return code  # the interpreter's exit retries the flush and reports its failure\n",
        "        os._exit(code)\n",
        ("tests/test_cli.py::test_cold_command_whose_flush_fails_exits_as_the_interpreter_reports_it",),
    ),
    # the argv reader, against the argparse parser it replaced (on the lines
    # that parser refuses, against its reading of the line rewritten)
    Mutant(
        "reader-ignores-json",
        "src/lcslab/cli.py",
        "                value = True\n",
        "                value = options[key]\n",
        ("tests/test_cli.py::test_reader_gives_the_options_of_the_reference_parser",),
    ),
    Mutant(
        "reader-keeps-the-first-value",
        "src/lcslab/cli.py",
        "            options[key] = value\n",
        "            if options.get(key) is None:  # --sample and --forms keep their first value\n                options[key] = value\n",
        ("tests/test_cli.py::test_reader_gives_the_options_of_the_reference_parser",),
    ),
    Mutant(
        "reader-accepts-a-second-positional",
        "src/lcslab/cli.py",
        "    extras += positionals[len(names) :]\n",
        "    extras += positionals[len(names) + 1 :]\n",
        ("tests/test_cli.py::test_reader_gives_the_options_of_the_reference_parser",),
    ),
    Mutant(
        "reader-drops-a-positional-after-an-option",
        "src/lcslab/cli.py",
        "        else:\n            positionals.append(token)\n",
        "        elif not any(t.startswith(\"--\") for t in argv[i + 1 : argv.index(token, i + 1)]):\n"
        "            positionals.append(token)\n",
        ("tests/test_cli.py::test_a_positional_may_follow_an_option",),
    ),
    Mutant(
        "reader-refuses-a-value-that-starts-with-a-dash",
        "src/lcslab/cli.py",
        "                if value == \"--\":\n",
        "                if value == \"--\" or value.startswith(\"-\"):\n",
        ("tests/test_cli.py::test_a_value_option_takes_a_next_token_that_starts_with_a_dash",),
    ),
    Mutant(
        "reader-takes-a-dash-token-for-the-command",
        "src/lcslab/cli.py",
        "if token[:1] != \"-\"), len(argv))",
        "if token[:2] != \"--\" and token not in HELP), len(argv))",
        ("tests/test_cli.py::test_reader_gives_the_options_of_the_reference_parser",),
    ),
    Mutant(
        "report-entry-defaults-shifted",
        "src/lcslab/cli.py",
        "defaults=(None,) * 4",
        "defaults=(None,) * 3",
        ("tests/test_cli.py::test_record_keeps_its_fields_and_defaults",),
    ),
    # a GCDHEU candidate is the GCD only once it divides both primitive
    # parts, which the one check both callers share verifies: accepted
    # unverified, the shared X - 1 of the Kronecker images of x - y and
    # x y - 1 would make y - 1 their GCD, and the recursion would take y as
    # the GCD of y - x^2 and y^2 - x y^2
    Mutant(
        "kronecker-candidate-accepted-unverified",
        "src/lcslab/_heugcd.py",
        "    try:\n        P.poly_divexact(a0, cand)\n        P.poly_divexact(b0, cand)\n    except ValueError:\n        return None\n",
        "",
        ("tests/test_kernels.py::test_kronecker_candidate_that_does_not_divide_goes_to_the_recursion",),
    ),
    Mutant(
        "heuristic-candidate-accepted-unverified",
        "src/lcslab/_heugcd.py",
        "    try:\n        P.poly_divexact(a0, cand)\n        P.poly_divexact(b0, cand)\n    except ValueError:\n        return None\n",
        "",
        ("tests/test_kernels.py::test_recursion_candidate_that_does_not_divide_is_refused",),
    ),
    # a balanced digit below zero carries one into the next place; the
    # Kronecker step reads no digit at or past its box
    Mutant(
        "balanced-digit-carry-floored",
        "src/lcslab/_heugcd.py",
        "c = (c - d) // xi",
        "c = c // xi",
        ("tests/test_kernels.py::test_kronecker_gcd_is_the_gcd[content]",),
    ),
    Mutant(
        "kronecker-box-bound-off-by-one",
        "src/lcslab/_heugcd.py",
        "if k >= box:",
        "if k > box:",
        ("tests/test_kernels.py::test_kronecker_digit_at_the_box_gives_up_undivided",),
    ),
    # a lazily loaded GCD module that holds the kernels it was loaded with
    # hides its calls from a wrapper installed in polyops later
    Mutant(
        "heuristic-gcd-kernels-bound-at-import",
        "src/lcslab/_heugcd.py",
        "from . import polyops as P\n",
        "from types import SimpleNamespace\n\nfrom . import polyops\n\nP = SimpleNamespace(**vars(polyops))\n",
        ("tests/test_perfbench_hooks.py::test_kernel_calls_of_lazily_loaded_gcd_modules_are_counted",),
    ),
    # the load path without fractions: sample values and the signature
    Mutant(
        "sample-integer-pattern-too-wide",
        "src/lcslab/cli.py",
        "    if digits.isascii() and digits.isdigit():\n",
        "    if digits[:1].isascii() and digits[:1].isdigit():\n",
        ("tests/test_cli.py::test_sample_value_grammar_is_fractions",),
    ),
    Mutant(
        "sample-integer-test-takes-non-ascii-digits",
        "src/lcslab/cli.py",
        "    if digits.isascii() and digits.isdigit():\n",
        "    if digits.isdigit():\n",
        ("tests/test_cli.py::test_integer_sample_values_skip_fractions",),
    ),
    Mutant(
        "variable-name-takes-non-ascii-letters",
        "src/lcslab/symexpr.py",
        "if not (name.isascii() and name[:1].isalpha()",
        "if not (name[:1].isalpha()",
        ("tests/test_symexpr.py::TestVar::test_name_grammar_is_the_pattern_it_replaced",),
    ),
    Mutant(
        "sample-exponent-bound-off-by-one",
        "src/lcslab/cli.py",
        "abs(int(exponent[1])) > 4300",
        "abs(int(exponent[1])) > 4301",
        ("tests/test_cli.py::test_sample_value_grammar_is_fractions",),
    ),
    # the signature by Descartes' rule on the characteristic polynomial:
    # a zero coefficient is no sign, the LeVerrier recurrence keeps its shift
    # c_(k-1) I, and zero eigenvalues are the trailing zero coefficients
    Mutant(
        "inertia-counts-zero-coefficients-as-signs",
        "src/lcslab/frame_geometry.py",
        "signs = [c > 0 for c in coeffs if c]",
        "signs = [c > 0 for c in coeffs]",
        ("tests/test_frame_geometry.py::TestSignature::test_inertia_handles_zero_diagonal",),
    ),
    # (without the shift even diag(1, 1, -1) reads as (1,2): every built-in
    # fails to load, and the inertia differs from the reference model's)
    Mutant(
        "leverrier-shift-dropped",
        "src/lcslab/frame_geometry.py",
        "mk = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(mm)]",
        "mk = mm",
        (
            "tests/test_cli.py::TestLoad::test_file_equivalent_to_builtin",
            "tests/test_frame_geometry.py::TestSignature::test_inertia_equals_rational_elimination",
        ),
    ),
    Mutant(
        "inertia-zero-eigenvalues-from-the-leading-end",
        "src/lcslab/frame_geometry.py",
        "enumerate(reversed(coeffs))",
        "enumerate(coeffs)",
        ("tests/test_frame_geometry.py::TestSignature::test_inertia_handles_zero_diagonal",),
    ),
    # Expr.sum: the final normalisation, each term's sign, every group; the
    # lcm that Expr.sum and Expr.along share scales each numerator to it
    Mutant(
        "sum-not-normalised",
        "src/lcslab/symexpr.py",
        "return (cls._raw if P.poly_is_one(lcm) else cls)(tuple(variables), num, lcm)",
        "return cls._raw(tuple(variables), num, lcm)",
        ("tests/test_symexpr.py::test_sum_examples_are_the_left_fold",),
    ),
    Mutant(
        "sum-shared-denominator-sign-dropped",
        "src/lcslab/symexpr.py",
        "group[0] = (P.poly_add if s > 0 else P.poly_sub)(group[0], e.num)",
        "group[0] = P.poly_add(group[0], e.num)",
        ("tests/test_symexpr.py::test_sum_examples_are_the_left_fold",),
    ),
    Mutant(
        "sum-new-group-sign-dropped",
        "src/lcslab/symexpr.py",
        "groups.append([e.num if s > 0 else P.poly_neg(e.num), den])",
        "groups.append([e.num, den])",
        ("tests/test_symexpr.py::test_sum_examples_are_the_left_fold",),
    ),
    Mutant(
        "sum-first-group-only",
        "src/lcslab/symexpr.py",
        "num = reduce(P.poly_add, parts)",
        "num = parts[0]",
        ("tests/test_symexpr.py::test_sum_examples_are_the_left_fold",),
    ),
    Mutant(
        "lcm-numerator-scaled-by-the-lcm",
        "src/lcslab/symexpr.py",
        "P.poly_mul(num, P.poly_divexact(lcm, den))",
        "P.poly_mul(num, lcm)",
        (
            "tests/test_symexpr.py::test_sum_examples_are_the_left_fold",
            "tests/test_frame_geometry.py::TestApply::test_coefficients_over_different_denominators",
        ),
    ),
    # the cross-cancelled product that * and / share, and the sign step of a
    # negative power, whose swapped denominator may lead negative
    Mutant(
        "cross-cancel-second-gcd-skipped",
        "src/lcslab/symexpr.py",
        "    g2 = P.poly_gcd(bn, ad)\n",
        "    g2 = P.poly_const(len(next(iter(ad))), 1)\n",
        ("tests/test_symexpr.py::TestArith::test_products_and_quotients_cancel_across",),
    ),
    Mutant(
        "negative-power-sign-not-normalised",
        "src/lcslab/symexpr.py",
        "            return Expr.zero(self.vars)\n        return Expr._raw(self.vars, *_positive_den(num, den))\n",
        "            return Expr.zero(self.vars)\n        return Expr._raw(self.vars, num, den)\n",
        ("tests/test_symexpr.py::TestArith::test_negative_power_of_a_negative_lead",),
    ),
    Mutant(
        "quotient-sign-not-normalised",
        "src/lcslab/symexpr.py",
        "return Expr._raw(self.vars, *_positive_den(*_cross_product(self.num, self.den, o.den, o.num)))",
        "return Expr._raw(self.vars, *_cross_product(self.num, self.den, o.den, o.num))",
        ("tests/test_symexpr.py::TestArith::test_every_fraction_step_leads_its_denominator_positive",),
    ),
    # a rational point loses its denominator: x = 1/3 is evaluated at x = 1;
    # integer points are unchanged, so of the whole suite only the eval of a
    # fraction point kills it
    Mutant(
        "eval-point-denominator-dropped",
        "src/lcslab/symexpr.py",
        "named[name] = q.numerator, q.denominator",
        "named[name] = q.numerator, 1",
        ("tests/test_symexpr.py::TestEval::test_fraction_points",),
    ),
    # the SGR lemma: at (w; x, x, z) the residual is -B(E_w) g(E_x,E_z) E_x,
    # so a vector leaf that scales its g-term by A(E_w) shows there
    Mutant(
        "sgr-g-term-scaled-by-a",
        "src/lcslab/frame_geometry.py",
        "vec_scale(v, c)",
        "vec_scale(u, c)",
        ("tests/test_conditions.py::TestSgrLemma::test_diagonal_residual_is_minus_b_g_e_x",),
    ),
    # one tautology per curvature self-check: the identity's second term
    # reads the same index with the opposite sign, or S is compared with the
    # pairing itself, so the check can no longer fail
    Mutant(
        "antisymmetry-first-pair-tautology",
        "src/lcslab/self_checks.py",
        '"antisymmetry-first-pair": ((1, (0, 1, 2, 3)), (1, (1, 0, 2, 3))),',
        '"antisymmetry-first-pair": ((1, (0, 1, 2, 3)), (-1, (0, 1, 2, 3))),',
        ("tests/test_curvature.py::TestSelfCheckOnFlatSpace::test_bumped_riemann_leaf",),
    ),
    Mutant(
        "antisymmetry-second-pair-tautology",
        "src/lcslab/self_checks.py",
        '"antisymmetry-second-pair": ((1, (0, 1, 2, 3)), (1, (0, 1, 3, 2))),',
        '"antisymmetry-second-pair": ((1, (0, 1, 2, 3)), (-1, (0, 1, 2, 3))),',
        ("tests/test_curvature.py::TestSelfCheckOnFlatSpace::test_bumped_riemann_leaf",),
    ),
    Mutant(
        "pair-symmetry-tautology",
        "src/lcslab/self_checks.py",
        '"pair-symmetry": ((1, (0, 1, 2, 3)), (-1, (2, 3, 0, 1))),',
        '"pair-symmetry": ((1, (0, 1, 2, 3)), (-1, (0, 1, 2, 3))),',
        ("tests/test_curvature.py::TestSelfCheckOnFlatSpace::test_bumped_riemann_leaf",),
    ),
    Mutant(
        "first-bianchi-tautology",
        "src/lcslab/self_checks.py",
        '"first-bianchi": ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1))),',
        '"first-bianchi": ((1, (0, 1, 2)), (-1, (0, 1, 2))),',
        ("tests/test_curvature.py::TestSelfCheckOnFlatSpace::test_bumped_riemann_leaf",),
    ),
    Mutant(
        "ricci-symmetry-tautology",
        "src/lcslab/self_checks.py",
        '"ricci-symmetry": ((1, (0, 1)), (-1, (1, 0))),',
        '"ricci-symmetry": ((1, (0, 1)), (-1, (0, 1))),',
        ("tests/test_curvature.py::TestSelfCheckOnFlatSpace::test_asymmetric_ricci_leaf",),
    ),
    Mutant(
        "ricci-operator-defining-tautology",
        "src/lcslab/self_checks.py",
        "(q - stack.ricci.comp(i, j)).is_zero",
        "(q - q).is_zero",
        ("tests/test_curvature.py::TestSelfCheckOnFlatSpace::test_bumped_ricci_operator_leaf",),
    ),
    # the scalar layer's rules at their call sites: one sum of every nonzero
    # term (caught only with three or more), / by 1 free only for 1 itself,
    # the GCD memo keyed by both operands, phi as the checked shape
    Mutant(
        "dot-drops-its-last-term",
        "src/lcslab/frame_geometry.py",
        "for a, b in zip(u, v) if a.num and b.num",
        "for a, b in zip(u[:-1], v) if a.num and b.num",
        ("tests/test_frame_geometry.py::test_dot_and_combo_are_the_left_fold",),
    ),
    Mutant(
        "combo-keeps-two-terms",
        "src/lcslab/frame_geometry.py",
        "return vec_sum(variables, terms)",
        "return vec_sum(variables, terms[:2])",
        ("tests/test_frame_geometry.py::test_dot_and_combo_are_the_left_fold",),
    ),
    Mutant(
        "divide-by-one-reads-the-numerator-only",
        "src/lcslab/symexpr.py",
        "if not self.num or P.poly_is_one(o.num) and P.poly_is_one(o.den):",
        "if not self.num or P.poly_is_one(o.num):",
        ("tests/test_symexpr.py::TestArith::test_division_by_one_is_the_dividend",),
    ),
    Mutant(
        "gcd-memo-key-drops-its-second-operand",
        "src/lcslab/polyops.py",
        "key = (ka, kb) if hash(ka) <= hash(kb) else (kb, ka)",
        "key = ka if hash(ka) <= hash(kb) else kb",
        ("tests/test_kernels.py::test_memo_key_holds_both_operands",),
    ),
    Mutant(
        "phi-read-from-direction-k",
        "src/lcslab/lcs_structure.py",
        "lambda i: targets[i]",
        "lambda i: targets[k]",
        ("tests/test_lcs_structure.py::TestDeriveStructure::test_phi_is_nabla_xi_over_alpha",),
    ),
    # the flat Milne universe reaches the scalar prediction and the zero-r
    # note of the opposition relation, which no other input does
    Mutant(
        "scalar-prediction-holds-inverted",
        "src/lcslab/cmd_check.py",
        "pred.r_predicted is not None and (pred.r_predicted - r).is_zero",
        "pred.r_predicted is not None and not (pred.r_predicted - r).is_zero",
        ("tests/test_conditions.py::TestSgrPredictions::test_milne_reaches_the_scalar_prediction",),
    ),
    # every support with a g term is read off the metric's one frame tensor,
    # so it must hold the off-diagonal entries too
    Mutant(
        "metric-tensor-from-the-diagonal",
        "src/lcslab/frame_geometry.py",
        "self.tensor = FrameTensor.build((0, 2), n, lambda i, j: g[i][j])",
        "self.tensor = FrameTensor.build((0, 2), n, lambda i, j: g[i][j], [(i, i) for i in range(n)])",
        ("tests/test_frame_geometry.py::TestMetric::test_metric_tensor_holds_the_nonzero_entries",),
    ),
    # str.isdigit is true for digits such as a superscript two, which int
    # refuses: the parser must take only what int reads as a decimal digit
    Mutant(
        "parser-number-reads-isdigit",
        "src/lcslab/symexpr.py",
        "self.text[self.pos].isdecimal():",
        "self.text[self.pos].isdigit():",
        ("tests/test_cli.py::TestExitCodes::test_non_decimal_digit_is_two",),
    ),
    Mutant(
        "parser-base-reads-isdigit",
        "src/lcslab/symexpr.py",
        "        if ch.isdecimal():\n",
        "        if ch.isdigit():\n",
        ("tests/test_cli.py::TestExitCodes::test_non_decimal_digit_is_two",),
    ),
    Mutant(
        "zero-scalar-curvature-not-refused",
        "src/lcslab/conditions.py",
        "elif r.is_zero:",
        "elif False:",
        ("tests/test_conditions.py::TestSgrPredictions::test_zero_scalar_curvature_blocks_opposition",),
    ),
)


def pytest(copy: Path, tests, timeout: float) -> subprocess.CompletedProcess:
    # With plugin autoload on, pytest rewrites the assertions of every module
    # of an entry-point plugin's distribution, all of hypothesis, and with no
    # bytecode written each child would rewrite them again; so autoload is
    # off, and hypothesis's plugin (the module of its pytest11 entry point,
    # which --hypothesis-profile needs) is loaded by name.
    env = {
        **os.environ,
        "PYTHONPATH": str(copy / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
    }
    # the "mutants" profile (tests/conftest.py) skips Hypothesis's shrink
    # phase: a failing example still fails its test, unminimised.  The child
    # bounds its own address space: a preexec_fn would run Python code
    # between fork and exec, which is unsafe while the workers' threads run
    bounded = f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({MEMORY}, {MEMORY}))"
    argv = [sys.executable, "-c", f"{bounded}; import pytest; sys.exit(pytest.main())"]
    argv += ["-q", "-x", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", "--hypothesis-profile=mutants", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)


def verdict(done: subprocess.CompletedProcess) -> str:
    """'killed', 'survived', or why a finished child judges nothing: a
    MemoryError fails a test, but the test did not catch the mutant."""
    if "MemoryError" in done.stdout + done.stderr or done.returncode == -signal.SIGKILL:
        return "error: out of memory"
    if done.returncode == 1:  # pytest: some test failed
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {done.returncode}: {' '.join(tail)}"


def run_mutant(copy: Path, mutant: Mutant) -> str:
    """'killed', 'survived', or the reason the mutant could not be judged."""
    target = copy / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"error: the old text occurs {text.count(mutant.old)} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        done = pytest(copy, mutant.tests, TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"error: timed out after {TIMEOUT} s"
    finally:
        target.write_text(text, encoding="utf-8")
    return verdict(done)


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else list(MUTANTS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(chosen))
    bad = 0
    with tempfile.TemporaryDirectory(prefix="lcslab-mutants-") as tmp:
        # each worker's own copy, taken by one mutant at a time
        copies = queue.SimpleQueue()
        for k in range(workers):
            copy = Path(tmp) / str(k)
            for part in COPIED:
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
            copies.put(copy)
        # a test that fails unmutated would count every mutant as killed
        tests = sorted({t for m in chosen for t in m.tests})
        try:
            clean = pytest(Path(tmp) / "0", tests, TIMEOUT * len(tests))
        except subprocess.TimeoutExpired:
            print(f"the mutants' tests time out on the unmutated copy ({TIMEOUT} s a test)", file=sys.stderr)
            return 1
        if clean.returncode != 0:
            print(clean.stdout + clean.stderr, file=sys.stderr)
            print("the mutants' tests do not pass on the unmutated copy", file=sys.stderr)
            return 1

        def judge(mutant: Mutant) -> tuple[str, float]:
            copy = copies.get()
            try:
                start = time.perf_counter()
                return run_mutant(copy, mutant), time.perf_counter() - start
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(workers) as pool:
            for mutant, (outcome, seconds) in zip(chosen, pool.map(judge, chosen)):
                bad += outcome != "killed"
                print(f"{mutant.name}: {outcome} ({seconds:.1f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
