"""One workload run, inside the process that run.py starts with pinned BLAS threads.

Usage (run.py passes these): worker.py --workload W --seed N --seconds S
--trace 0|1 --spawned-at T [--probe].  With --probe the worker only sets up,
prints its set-up time and exits.  Otherwise it prints a detail line and then
the result line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

import uban.cli
from metrics import end_to_end, per_layer
from pipeline import (INPUT_SETS, WORKLOADS, TrainRecorder, check_determinism,
                      input_seed, run_round)
from spans import STAGE_SPAN, Tracer
from stats import fail_ratio

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench_work")


def environment():
    """What produced the numbers: code version, interpreter, BLAS, cores."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = Path(uban.cli.__file__).parent
    return {
        "git_head": _git_head(Path.cwd()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": {p.name: sum(1 for _ in p.open(encoding="utf-8"))
                      for p in sorted(src.glob("*.py"))},
    }


def _git_head(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    def __init__(self, workload, seed, work_dir):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.recorder = TrainRecorder()
        self.tracer = None

    def call_stage(self, stage, argv):
        if self.tracer is None:
            return uban.cli.main(argv)
        with self.tracer.span(STAGE_SPAN, stage=stage):
            return uban.cli.main(argv)

    def round(self, index):
        seed = input_seed(self.seed, index)
        d = self.work_dir / f"round-{index}"
        if self.tracer is not None:
            self.tracer.run_id = f"{self.workload.name}/seed{self.seed}/round{index}"
        try:
            result = run_round(self.workload, seed, d, self.call_stage, self.recorder)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        for p in result.problems:
            print(f"round {index} (input set {seed}): {p}", file=sys.stderr)
        return result


def untraced_run(runner, seconds, setup_samples):
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < INPUT_SETS or time.perf_counter() - t0 < seconds:
        rounds.append(runner.round(len(rounds)))
    problems = check_determinism(rounds, _references(runner.workload.name))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        metrics, counts = end_to_end(rounds, setup_samples, peak_rss_mb)
    except (statistics.StatisticsError, ValueError) as exc:
        return _report(rounds, problems + [f"metrics: {exc}"], None, {})
    return _report(rounds, problems, metrics,
                   {"samples": counts, "env": environment(),
                    "round_seconds": [r.seconds for r in rounds]})


def traced_run(runner, workload):
    """INPUT_SETS untraced rounds, then the same inputs again under the tracer."""
    untraced = [runner.round(i) for i in range(INPUT_SETS)]
    runner.tracer = tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.round(i) for i in range(INPUT_SETS)]
    finally:
        tracer.uninstall()
    rounds = untraced + traced
    problems = check_determinism(rounds, _references(workload))
    try:
        metrics, layer_problems = per_layer(tracer, traced, untraced, workload)
    except (statistics.StatisticsError, ValueError) as exc:
        return _report(rounds, problems + [f"metrics: {exc}"], None, {})
    spans_path = WORK_ROOT / f"spans-{workload}-seed{runner.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    return _report(rounds, problems + layer_problems, metrics,
                   {"rounds": len(rounds), "spans": str(spans_path), "env": environment()})


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent when it started this process")
    parser.add_argument("--setup-samples", type=float, nargs="*", default=[],
                        help="set-up times of earlier probe processes, in s")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    work_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work_dir.resolve())
    runner.recorder.install()
    setup_s = time.monotonic() - args.spawned_at
    try:
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return traced_run(runner, args.workload)
        return untraced_run(runner, args.seconds, args.setup_samples + [setup_s])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _references(workload):
    path = BENCH_DIR / "references.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {})


def _report(rounds, problems, metrics, detail):
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    detail["fail_ratio"] = fail_ratio(attempted, failed)
    detail["input_sets"] = {
        str(r.input_seed): {"total": r.total, "steps": r.steps,
                            "heldout_top5": r.heldout_top5}
        for r in rounds[:INPUT_SETS]}
    print(json.dumps({"detail": detail}, sort_keys=True))
    if metrics is None:
        return 1       # too few passing stages to compute every metric
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
