#!/usr/bin/env python3
"""Compare two sides of benchmark results, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --head B1.json B2.json ...

Each file is a result that ``run.py`` wrote (``perfbench/out/result-*.json``;
copy them away between commits).  For every metric it prints each side's
median and quartiles and the change of the head median against the base
median.  It refuses to compare when the files disagree on the kernel
backend, the workload, the trace mode or the run length, since such numbers
measure different things.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MUST_MATCH = ("kernel_backend", "compiled_kernels", "workload", "trace", "seconds")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--head", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)

    sides = {name: [json.loads(p.read_text()) for p in paths] for name, paths in (("base", args.base), ("head", args.head))}
    for key in MUST_MATCH:
        seen = {json.dumps(r["provenance"][key]) for rs in sides.values() for r in rs}
        if len(seen) > 1:
            print(f"refusing to compare: the results differ in {key}: {', '.join(sorted(seen))}", file=sys.stderr)
            return 2
    for name, results in sides.items():
        failed = sum(r["failed"] for r in results)
        print(f"{name}: {len(results)} runs, {failed} failed ops, seeds {sorted(r['provenance']['seed'] for r in results)}")

    names = list(sides["base"][0]["metrics"])
    print(f"{'metric':<32} {'unit':<6} {'base q1/median/q3':>30} {'head q1/median/q3':>30} {'change':>8}")
    for metric in names:
        unit = sides["base"][0]["metrics"][metric]["unit"]
        cols = {}
        for name, results in sides.items():
            values = [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]
            cols[name] = quartiles(values)
        b, h = cols["base"][1], cols["head"][1]
        change = f"{h / b - 1:+.1%}" if b else "n/a"
        fmt = "/".join(f"{v:.4g}" for v in cols["base"]), "/".join(f"{v:.4g}" for v in cols["head"])
        print(f"{metric:<32} {unit:<6} {fmt[0]:>30} {fmt[1]:>30} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
