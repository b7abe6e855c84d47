"""Percentile rule, output checks, failure accounting and comparing two run sets."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pipeline import (STAGES, WORKLOADS, RoundResult, check_determinism,  # noqa: E402
                      check_manifest, run_round, sha256)
from stats import (TooFewSamples, compare_sets, fail_ratio, percentile,  # noqa: E402
                   spread)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))           # 1..100
    assert percentile(samples, 50) == (50, 100, 50)
    assert percentile(samples, 90) == (90, 100, 10)
    with pytest.raises(TooFewSamples):
        percentile(samples, 95)              # only 5 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)      # 9 beyond
    assert percentile(list(reversed(samples)), 90)[0] == 90


def test_fail_ratio():
    assert fail_ratio(10, 0) == 0.0
    assert fail_ratio(8, 2) == 0.25
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(3, 4)


WORKLOAD = WORKLOADS["train-plain"]


class FakeRecorder:
    calls = []


def test_failed_stage_fails_the_rest_of_its_round(tmp_path):
    def call_stage(stage, argv):
        return 3 if stage == "train" else 0

    def fake_gen(stage, argv):
        if stage == "gen":
            out = tmp_path / "gen"
            out.mkdir()
            rows = ["video_id,start_s,stop_s,verb_id,noun_id"]
            rows += [f"v{i},0.0,1.0,0,0" for i in range(41)]
            (out / "annotations.csv").write_text("\n".join(rows) + "\n")
        return call_stage(stage, argv)

    result = run_round(WORKLOAD, 0, tmp_path, fake_gen, FakeRecorder())
    assert result.attempted == len(STAGES)
    assert result.failed == len(STAGES) - 2      # train and the three evals
    assert set(result.seconds) == {"gen", "stats"}
    assert fail_ratio(result.attempted, result.failed) == pytest.approx(4 / 6)


def test_failed_check_drops_the_stage_timing():
    r = RoundResult(input_seed=0, seconds={s: 1.0 for s in STAGES}, attempted=6)
    r.fail("eval_noise", "non-finite")
    r.fail("eval_noise", "still non-finite")     # one stage fails once
    assert r.failed == 1 and "eval_noise" not in r.seconds and not r.ok


def _round(seed, total, top5, steps=200):
    return RoundResult(input_seed=seed, total=total, steps=steps, heldout_top5=top5)


def test_determinism_and_references():
    rounds = [_round(0, 2.5, 0.4), _round(1, 2.0, 0.3), _round(0, 2.5, 0.4)]
    assert check_determinism(rounds, {}) == []
    rounds.append(_round(1, 2.0000001, 0.3))
    assert len(check_determinism(rounds, {})) == 1          # repeat differs

    refs = {"0": {"total": 2.5, "steps": 200, "heldout_top5": 0.41}}
    assert check_determinism(rounds[:3], refs) == []         # within tolerance
    refs["0"]["total"] = 2.6
    assert len(check_determinism(rounds[:3], refs)) == 1
    refs["0"] = {"total": 2.5, "steps": 199, "heldout_top5": 0.5}
    assert len(check_determinism(rounds[:3], refs)) == 2


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([9, 10, 10, 10, 11] * 2) == pytest.approx(0.5 / 10)   # Q1 9.75, Q3 10.25


METRICS = [{"name": "ms", "unit": "ms", "better": "lower", "bound": 0.1},
           {"name": "acc", "unit": "fraction", "better": "higher", "bound": 0.1}]


def test_compare_sets_against_bounds():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    base = {("w", "ms"): steady, ("w", "acc"): [0.5] * 10}

    def verdicts(change):
        return {r["metric"]: r["verdict"] for r in compare_sets(base, change, METRICS)}

    assert verdicts({("w", "ms"): [v * 1.05 for v in steady],
                     ("w", "acc"): [0.5] * 10}) == {"ms": "ok", "acc": "ok"}
    assert verdicts({("w", "ms"): [v * 1.2 for v in steady],
                     ("w", "acc"): [0.4] * 10}) == {"ms": "regressed", "acc": "regressed"}
    assert verdicts({("w", "ms"): [v * 0.8 for v in steady],
                     ("w", "acc"): [0.6] * 10}) == {"ms": "ok", "acc": "ok"}

    noisy = {("w", "ms"): [50.0, 80, 100, 120, 150, 60, 90, 110, 140, 100],
             ("w", "acc"): [0.5] * 10}
    rows = compare_sets(noisy, {("w", "ms"): [95.0] * 10, ("w", "acc"): [0.5] * 10}, METRICS)
    assert rows[1]["verdict"] == "unresolved"



def test_manifest_check_catches_changed_inputs_and_missing_outputs(tmp_path):
    inp, out = tmp_path / "in.csv", tmp_path / "out.json"
    inp.write_text("a,b\n")
    out.write_text("{}")
    manifest = tmp_path / "manifest.json"

    def write(inputs, outputs):
        manifest.write_text(json.dumps({"inputs": inputs, "outputs": outputs}))
        return check_manifest(manifest)

    assert write({str(inp): sha256(inp)}, [str(out)]) is None
    assert "digest" in write({str(inp): "0" * 64}, [str(out)])
    assert "missing" in write({str(inp): sha256(inp)}, [str(tmp_path / "gone")])
    assert check_manifest(tmp_path / "nothing.json") == "no manifest"
