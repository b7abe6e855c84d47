"""Workloads, the CLI pipeline round each of them runs, and its output checks.

Every workload runs the same round through ``uban.cli.main``, in process:
``gen``, a split of the annotations into training and held-out videos,
``stats`` and ``train`` on the training videos, then ``eval`` in the modes
``metrics``, ``mcdropout`` and ``noise`` on the held-out videos.  The
workloads differ in corpus size, training length and objective, which
decides which layers dominate.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import Patches

# A run cycles through this many input sets made from its seed, so that
# held-out accuracy is averaged over several corpora and trained models.
INPUT_SETS = 6
LAST_STEP_TAU_A = "0.25"   # anticipation horizon of the last decoder step
STAGES = ("gen", "stats", "train", "eval_metrics", "eval_mcdropout", "eval_noise")

# Tolerances against the stored references (references.json).  Same-seed
# rounds on one machine must agree bit for bit; the references allow for a
# different BLAS or a reordered sum that leaves the model as it was.
REFERENCE_REL_TOL = {"total": 1e-4}
REFERENCE_ABS_TOL = {"heldout_top5": 0.02}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen: tuple            # arguments of `uban gen`
    train: tuple          # arguments of `uban train` besides the inputs
    train_videos: int = 40


_ACCEPTANCE_GEN = ("--classes", "20", "--videos", "50", "--segments", "20",
                   "--feature-noise", "2.0")

WORKLOADS = {
    "train-boosted": Workload(
        "train-boosted",
        "full objective: heads, SRUL mixing, the TRUL family path, backward and "
        "the optimizer, at B=32 and h=32 where Python overhead per tape node dominates",
        _ACCEPTANCE_GEN, ("--profile", "desk")),
    "train-plain": Workload(
        "train-plain",
        "alpha=beta=gamma=0 skips labels, SRUL and TRUL: a change to those must not "
        "move it, while backbone, autodiff and optimizer changes still show",
        _ACCEPTANCE_GEN, ("--profile", "desk", "--alpha", "0", "--beta", "0",
                          "--gamma", "0")),
    "cli-pipeline": Workload(
        "cli-pipeline",
        "200 videos at dim 64 with a short training: file I/O, digests and "
        "tape-building inference (MC dropout) dominate, with no backward",
        ("--videos", "200", "--dim", "64"), ("--profile", "desk", "--epochs", "2")),
}


def input_seed(seed, round_index):
    """Seed of the input set a round uses; distinct seeds never share one."""
    return seed * INPUT_SETS + round_index % INPUT_SETS


@dataclass
class RoundResult:
    input_seed: int
    seconds: dict = field(default_factory=dict)   # stage -> wall seconds, passed only
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    total: float | None = None                    # final logged total loss
    steps: int | None = None
    heldout_top5: float | None = None
    feature_csv_bytes: int = 0
    train_call: dict | None = None                # recorded by TrainRecorder

    @property
    def ok(self):
        return self.failed == 0

    def fail(self, stage, message):
        self.problems.append(f"{stage}: {message}")
        if stage in self.seconds:
            del self.seconds[stage]       # a failed stage yields no timing
            self.failed += 1

    @property
    def pipeline_s(self):
        return sum(self.seconds[s] for s in STAGES)


class TrainRecorder:
    """Light hooks for the untraced numbers: train() wall time and step ends.

    A step ends when ``SgdMomentum.step`` returns; one clock read marks it.
    """

    def __init__(self):
        self.calls = []          # one dict per train() call
        self._current = None
        self._patches = Patches()

    def install(self):
        import uban.cli
        import uban.train
        rec = self
        real_train = uban.cli.train
        real_step = uban.train.SgdMomentum.step
        real_windows = uban.train.window_samples

        def train(config, *args, **kwargs):
            rec._current = call = {"epochs": config.epochs, "windows": None,
                                   "step_ends": []}
            t0 = time.perf_counter()
            try:
                return real_train(config, *args, **kwargs)
            finally:
                call["wall_s"] = time.perf_counter() - t0
                rec._current = None
                rec.calls.append(call)

        def step(self):
            real_step(self)
            if rec._current is not None:
                rec._current["step_ends"].append(time.perf_counter())

        def window_samples(*args, **kwargs):
            result = real_windows(*args, **kwargs)
            if rec._current is not None and rec._current["windows"] is None:
                rec._current["windows"] = len(result[0])
            return result

        self._patches.replace(uban.cli, "train", train)
        self._patches.replace(uban.train.SgdMomentum, "step", step)
        self._patches.replace(uban.train, "window_samples", window_samples)

    def uninstall(self):
        self._patches.restore()


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def split_annotations(src, train_path, heldout_path, train_videos):
    """First `train_videos` videos, in file order, train; the rest are held out."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    order = list(dict.fromkeys(r[0] for r in body))
    if len(order) <= train_videos:
        raise ValueError(f"{src}: {len(order)} videos, need more than {train_videos}")
    keep = set(order[:train_videos])
    for path, part in ((train_path, [r for r in body if r[0] in keep]),
                       (heldout_path, [r for r in body if r[0] not in keep])):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(part)


def stage_argv(workload, stage, seed, d):
    g = d / "gen"

    def corpus(annotations):
        return ["--annotations", str(annotations), "--verbs", str(g / "verbs.csv"),
                "--nouns", str(g / "nouns.csv")]

    out = ["--seed", str(seed), "--out", str(d / stage)]
    if stage == "gen":
        return out + ["gen", *workload.gen]
    if stage == "stats":
        return out + ["stats", *corpus(d / "train.csv")]
    if stage == "train":
        return out + ["train", *corpus(d / "train.csv"),
                      "--features", str(g / "features.csv"), *workload.train]
    mode = stage.removeprefix("eval_")
    return out + ["eval", *corpus(d / "heldout.csv"), "--features", str(g / "features.csv"),
                  "--checkpoint", str(d / "train" / "model.ckpt"), "--mode", mode,
                  "--tau-a", LAST_STEP_TAU_A]


def run_round(workload, seed, work_dir, call_stage, recorder):
    """Run the six stages; returns a RoundResult with timings and checks.

    call_stage(stage, argv) runs uban.cli.main and returns its exit code;
    the time it takes is the stage's time.  A stage that fails ends the round,
    and the stages after it count as attempted and failed.
    """
    d = Path(work_dir)
    result = RoundResult(input_seed=seed)
    calls_before = len(recorder.calls)
    for i, stage in enumerate(STAGES):
        result.attempted += 1
        gc.collect()       # each stage starts on a clean heap, as in its own process
        t0 = time.perf_counter()
        try:
            code = call_stage(stage, stage_argv(workload, stage, seed, d))
        except Exception as exc:       # a crash is a failed stage, not a dead run
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if code != 0:
            result.problems.append(f"{stage}: exit {code}")
            result.failed += 1
            rest = len(STAGES) - i - 1
            result.attempted += rest
            result.failed += rest
            return result
        result.seconds[stage] = elapsed
        if stage == "gen":
            split_annotations(d / "gen" / "annotations.csv", d / "train.csv",
                              d / "heldout.csv", workload.train_videos)
    train_calls = recorder.calls[calls_before:]
    result.train_call = train_calls[0] if len(train_calls) == 1 else None
    check_round(result, d)
    return result


def check_round(result, d):
    """Check the outputs of a round whose stages all exited 0."""
    checks = [(stage, lambda stage=stage: check_manifest(d / stage / "manifest.json"))
              for stage in STAGES]
    checks += [("train", lambda: _check_train(result, d)),
               ("eval_metrics", lambda: _check_metrics(result, d)),
               ("eval_mcdropout", lambda: _check_mcdropout(d)),
               ("eval_noise", lambda: _check_noise(d))]
    for stage, check in checks:
        try:
            problem = check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            result.fail(stage, problem)
    result.feature_csv_bytes = (d / "gen" / "features.csv").stat().st_size


def _check_train(result, d):
    log = (d / "train" / "train_log.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in log.splitlines()]
    steps = len(result.train_call["step_ends"]) if result.train_call else None
    if not rows or any(not math.isfinite(r["total"]) for r in rows):
        return "empty log or non-finite loss"
    if steps != len(rows):
        return f"{len(rows)} logged steps, {steps} optimizer steps"
    result.total, result.steps = rows[-1]["total"], len(rows)
    return None


def _check_metrics(result, d):
    top5 = json.loads((d / "eval_metrics" / "metrics.json").read_text(encoding="utf-8"))["top5"]
    if not 0.0 <= top5 <= 1.0:
        return f"top5 {top5} outside [0, 1]"
    result.heldout_top5 = top5
    return None


def _check_mcdropout(d):
    mc = json.loads((d / "eval_mcdropout" / "mcdropout.json").read_text(encoding="utf-8"))
    if not math.isfinite(mc["model_uncertainty"]):
        return "non-finite model_uncertainty"
    return None


def _check_noise(d):
    with open(d / "eval_noise" / "noise.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows or not all(math.isfinite(float(v)) for row in rows for v in row):
        return "empty or non-finite noise sweep"
    return None


def check_manifest(path):
    """Every listed output exists and every input still has its recorded digest."""
    if not path.exists():
        return "no manifest"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for out in manifest["outputs"]:
        if not Path(out).is_file():
            return f"missing output {out}"
    for inp, digest in manifest["inputs"].items():
        if not Path(inp).is_file() or sha256(inp) != digest:
            return f"input {inp} does not match its digest"
    return None


def check_determinism(rounds, references):
    """Problems with same-input repeats and with the stored reference values.

    `references` maps input seed (as a string) to {"total", "steps",
    "heldout_top5"}; a seed without an entry is only checked for repeats.
    """
    problems = []
    first = {}
    for r in rounds:
        if r.total is None or r.heldout_top5 is None:
            continue
        key = (r.total, r.steps, r.heldout_top5)
        seen = first.setdefault(r.input_seed, key)
        if key != seen:
            problems.append(f"input set {r.input_seed}: repeat gave {key}, first gave {seen}")
    for seed, (total, steps, top5) in sorted(first.items()):
        ref = references.get(str(seed))
        if ref is None:
            continue
        if steps != ref["steps"]:
            problems.append(f"input set {seed}: {steps} steps, reference {ref['steps']}")
        if abs(total - ref["total"]) > REFERENCE_REL_TOL["total"] * max(1.0, abs(ref["total"])):
            problems.append(f"input set {seed}: final loss {total!r}, reference {ref['total']!r}")
        if abs(top5 - ref["heldout_top5"]) > REFERENCE_ABS_TOL["heldout_top5"]:
            problems.append(f"input set {seed}: heldout top5 {top5!r}, "
                            f"reference {ref['heldout_top5']!r}")
    return problems
