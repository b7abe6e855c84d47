"""BENCHMARK.json agrees with the metric definitions and keeps the format limits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from pipeline import WORKLOADS  # noqa: E402

REPO = Path(__file__).resolve().parents[2]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_command():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60


def test_workloads_match_the_pipeline():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_metrics_match_their_definitions():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]


def test_format_limits():
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert 1 <= len(BENCH["end_to_end"]) <= 16 and 1 <= len(BENCH["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-plain",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
