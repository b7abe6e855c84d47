"""Compare two sets of runs written by sweep.py against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py .perfbench_work/sets/base.jsonl .perfbench_work/sets/change.jsonl

Prints one row per workload and end-to-end metric; exits 1 if any metric
regressed by more than its bound.
"""

from __future__ import annotations

import argparse
import sys

from stats import compare_sets
from sweep import load_bench, load_set


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    metrics = load_bench()["end_to_end"]
    names = {m["name"] for m in metrics}
    base = {k: v for k, v in load_set(args.base).items() if k[1] in names}
    change = load_set(args.change)
    rows = compare_sets(base, change, metrics)
    print(f"{'workload':14s} {'metric':22s} {'base':>12s} {'change':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:14s} {r['metric']:22s} {r['base_median']:12.6g} "
              f"{r['change_median']:12.6g} {r['worse_by']:9.4f} {r['base_spread']:7.4f} "
              f"{r['bound']:6.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
