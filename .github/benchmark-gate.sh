#!/usr/bin/env bash
# The benchmark correctness gate: nine runs of perfbench/run.py, each failing
# the script when its last line says "correct": false.  Run from the root of
# a checkout with the interpreter to test as python3; it needs only the
# standard library.
#
# run.py passes PYTHONDONTWRITEBYTECODE (set by the caller for the whole job)
# through to its children, so each child compiles every module it imports,
# lazily loaded ones included, as in the measured runs; no cached bytecode
# stands in.
# run.py exits 0 even when an op fails its gate (say, a report that drifts
# from its golden digest); it records that as "correct": false on its last
# line, so the gate fails on that line.  Seed 1 has no golden digests: there
# the gate rests on exit codes, fail counts, the numeric oracle and the
# generator's self-check (on dense, all seven curvature self-checks,
# second-bianchi among them) on frames no digest was recorded for.
set -euo pipefail
gate() {
  python3 perfbench/run.py "$@" --seconds 1 | tail -n 1 |
    python3 -c 'import json, sys; line = sys.stdin.read(); print(line, end=""); sys.exit(not json.loads(line)["correct"])'
}
for seed in 0 1; do
  for w in paper3 lcsN dense; do
    gate --workload "$w" --seed "$seed" --trace 0
  done
done
# in-process: one process builds many manifolds and checks each report
# against its golden digest, so state kept across manifolds (the Expr and
# GCD memos) would show here
for w in paper3 lcsN dense; do
  gate --workload "$w" --seed 0 --trace 1
done
