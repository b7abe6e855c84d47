"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --workloads train-boosted cli-pipeline \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out .perfbench_work/sets/base.jsonl

Run from the root of a checkout.  Each run appends one JSON line
{"workload", "seed", "result", "detail"} to --out, so two sets can be
compared with compare.py and references.py can record the checked outputs.
The spread is the distance between the first and third quartile as a share
of the median; the bound is the one in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

BENCH_DIR = Path(__file__).resolve().parent


def load_bench():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or "metrics" not in result:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return result, json.loads(lines[-2])["detail"]


def load_set(path):
    """(workload, metric) -> values, from a file written by this script."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            for name, m in row["result"]["metrics"].items():
                values.setdefault((row["workload"], name), []).append(m["value"])
    return values


def summarize(values, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':14s} {'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for (workload, name), vals in sorted(values.items()):
        if name not in bounds or len(vals) < 2:
            continue
        s = spread(vals)
        flag = "" if s < bounds[name] / 3 else "  above a third of the bound"
        print(f"{workload:14s} {name:22s} {statistics.median(vals):12.6g} {s:8.4f} "
              f"{bounds[name]:6.2f}{flag}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = load_bench()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for seed in args.seeds:
            result, detail = run_once(workload, seed, args.seconds or bench["run_seconds"])
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result, "detail": detail}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
    summarize(load_set(out), bench)


if __name__ == "__main__":
    sys.exit(main())
