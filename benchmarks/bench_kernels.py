#!/usr/bin/env python3
"""Compare the compiled polynomial kernels against the pure-Python twins.

Two levels:
  * kernel microbenchmarks, both backends loaded side by side in-process,
    with result equality asserted on every call;
  * an end-to-end run (reference manifold: connection, curvature stack,
    axiom verification) in subprocesses, selecting the backend through
    LCSLAB_PURE_PYTHON.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

from lcslab import _poly_py

try:
    from lcslab import _poly_cy
except ImportError:
    _poly_cy = None


def random_poly(rng, nterms, nvars=3, maxexp=4, maxcoef=50):
    out = {}
    while len(out) < nterms:
        out[tuple(rng.randint(0, maxexp) for _ in range(nvars))] = rng.randint(1, maxcoef) * rng.choice((-1, 1))
    return out


def bench_pair(label, fn_py, fn_cy, args_list, repeat):
    times = {}
    for name, fn in (("python", fn_py), ("cython", fn_cy)):
        if fn is None:
            continue
        best = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            results = [fn(*args) for args in args_list]
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        times[name] = best
        if name == "cython":
            expected = [fn_py(*args) for args in args_list]
            assert results == expected, f"backend mismatch in {label}"
    line = f"{label:<28} python {times['python'] * 1e3:8.2f} ms"
    if "cython" in times:
        line += f"   cython {times['cython'] * 1e3:8.2f} ms   speedup {times['python'] / times['cython']:5.2f}x"
    print(line)


def kernel_benchmarks(repeat):
    rng = random.Random(99)
    mul_args = [(random_poly(rng, 12), random_poly(rng, 12)) for _ in range(40)]
    add_args = [(random_poly(rng, 40), random_poly(rng, 40)) for _ in range(200)]
    div_args = []
    for _ in range(30):
        a = random_poly(rng, 8)
        b = random_poly(rng, 6)
        div_args.append((_poly_py.poly_mul(a, b), b))
    lead_args = [(random_poly(rng, 60),) for _ in range(400)]
    # canonical fractions mostly divide by a GCD of 1 or by a single term
    one_term_args = []
    for _ in range(200):
        a = random_poly(rng, 20)
        m = random_poly(rng, 1)
        one_term_args += [(a, {(0, 0, 0): 1}), (_poly_py.poly_mul(a, m), m)]

    print("kernel microbenchmarks (best of repeats, results asserted equal):")
    bench_pair("poly_mul 12x12 terms", _poly_py.poly_mul, getattr(_poly_cy, "poly_mul", None), mul_args, repeat)
    bench_pair("poly_add 40+40 terms", _poly_py.poly_add, getattr(_poly_cy, "poly_add", None), add_args, repeat)
    bench_pair("poly_divexact", _poly_py.poly_divexact, getattr(_poly_cy, "poly_divexact", None), div_args, repeat)
    bench_pair("poly_divexact by 1 / 1 term", _poly_py.poly_divexact, getattr(_poly_cy, "poly_divexact", None), one_term_args, repeat)
    bench_pair("poly_lead 60 terms", _poly_py.poly_lead, getattr(_poly_cy, "poly_lead", None), lead_args, repeat)


STACK_SNIPPET = """
import time
from lcslab import KERNEL_BACKEND
from lcslab.cli import build_manifold, load
from lcslab.lcs_structure import verify_axioms
t0 = time.perf_counter()
data = build_manifold(load("example51"))
data.stack
data.nabla_riemann
data.nabla_ricci
checks = verify_axioms(data, data.structure)
assert all(c.passed for c in checks)
print(KERNEL_BACKEND, time.perf_counter() - t0)
"""


def stack_benchmark(repeat):
    print("\nend-to-end: reference manifold stack + axiom verification (subprocess):")
    for backend, env_value in (("python", "1"), ("cython", "0")):
        if backend == "cython" and _poly_cy is None:
            print("  cython backend not built; skipping")
            continue
        env = dict(os.environ, LCSLAB_PURE_PYTHON=env_value)
        samples = []
        for _ in range(repeat):
            out = subprocess.run(
                [sys.executable, "-c", STACK_SNIPPET], capture_output=True, text=True, env=env, check=True
            ).stdout.split()
            assert out[0] == backend, f"expected {backend} backend, selected {out[0]}"
            samples.append(float(out[1]))
        print(f"  {backend:<8} {min(samples) * 1e3:8.1f} ms (best of {repeat}, median {statistics.median(samples) * 1e3:.1f} ms)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if _poly_cy is None:
        print("note: compiled backend not importable; showing pure-Python numbers only\n")
    kernel_benchmarks(args.repeat)
    stack_benchmark(max(3, args.repeat))


if __name__ == "__main__":
    main()
