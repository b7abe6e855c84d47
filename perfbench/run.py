"""Benchmark entry point: run one workload of the uban pipeline and print its metrics.

    python3 perfbench/run.py --workload train-boosted --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  It starts the workload in a child
Python process whose BLAS and OpenMP pools are pinned to one thread, with
`src/` of the checkout on its path, and waits for it.  Set-up time is
measured in separate probe processes as well, and the median is reported.
The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, without a result line, when the checkout holds no uban
sources or the workload fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from pipeline import WORKLOADS

SETUP_PROBES = 8          # timed set-up probes, after one untimed warm-up
DEADLINE_S = 170.0        # the whole run, probes included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH_DIR = Path(__file__).resolve().parent


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_worker(args, env, extra, timeout):
    """Run worker.py to completion; returns (exit code, stdout)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    return proc.returncode, proc.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uban" / "cli.py").is_file():
        print(f"perfbench: no uban sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                code, out = run_worker(args, env, ["--probe"], remaining())
                if code != 0:
                    print(f"perfbench: set-up probe exited {code}", file=sys.stderr)
                    return 3
                if i > 0:     # the first probe fills the bytecode cache
                    setup.append(json.loads(out.splitlines()[-1])["setup_s"])
        extra = ["--setup-samples", *map(repr, setup)] if setup else []
        code, out = run_worker(args, env, extra, remaining())
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 4
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
