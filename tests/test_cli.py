import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uban.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from uban.cooccur import corpus_from_rows, read_annotations, read_vocabulary
from uban.data import read_feature_csv, window_samples
from uban.model import AnticipationWindow, load_checkpoint, save_checkpoint
from uban.train import evaluate_model


def run(*argv):
    return main([str(a) for a in argv])


def gen_args(out, seed=0, classes=6, videos=6, segments=8):
    return ["--seed", seed, "--out", out, "gen", "--classes", classes,
            "--branching", 3, "--videos", videos, "--segments", segments,
            "--dim", 6]


def corpus_args(gen_dir):
    gen_dir = Path(gen_dir)
    return ["--annotations", gen_dir / "annotations.csv",
            "--verbs", gen_dir / "verbs.csv",
            "--nouns", gen_dir / "nouns.csv"]


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "gen"
    assert run(*gen_args(out)) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def train_dir(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "train"
    code = run("--seed", 0, "--out", out, "train", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--profile", "desk", "--epochs", 2, "--batch-size", 16)
    assert code == EXIT_OK
    return out


def test_gen_outputs_and_manifest(gen_dir):
    for name in ("annotations.csv", "features.csv", "verbs.csv", "nouns.csv",
                 "successors.json", "manifest.json"):
        assert (gen_dir / name).exists()
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 0


# sha256 of the fixture corpus files that `gen` writes
GEN_DIGESTS = {
    "features.csv": "c8aeb74c050b226c9bd60521d52ed8fc4f275f25921f99c1fe154ad69de7cc2d",
    "annotations.csv": "d91e0c7be06232365a739eac8540587703243dd3728e63fbff4bcec9f463eb48",
}


def test_gen_outputs_pinned(gen_dir):
    for name, digest in GEN_DIGESTS.items():
        assert hashlib.sha256((gen_dir / name).read_bytes()).hexdigest() == digest


def test_stats_internal_only(gen_dir, tmp_path):
    out = tmp_path / "stats"
    assert run("--out", out, "stats", *corpus_args(gen_dir)) == EXIT_OK
    assert (out / "internal.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classes"] == 6
    assert not (out / "external_activity.csv").exists()


def test_stats_with_edges(gen_dir, tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("verb_0\tUsedFor\tknife\nverb_1\tUsedFor\tknife\n")
    out = tmp_path / "stats"
    assert run("--out", out, "stats", *corpus_args(gen_dir),
               "--edges", edges) == EXIT_OK
    for name in ("external_verb.csv", "external_noun.csv",
                 "external_activity.csv"):
        assert (out / name).exists()


def test_train_writes_checkpoint_and_log(train_dir):
    assert (train_dir / "model.ckpt").exists()
    log_lines = (train_dir / "train_log.jsonl").read_text().strip().splitlines()
    rows = [json.loads(line) for line in log_lines]
    assert all("total" in r for r in rows)


def test_eval_metrics(gen_dir, train_dir, tmp_path):
    out = tmp_path / "eval"
    code = run("--out", out, "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--checkpoint", train_dir / "model.ckpt", "--mode", "metrics")
    assert code == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["top5"] <= 1.0
    assert metrics["sample_count"] > 0


def test_eval_report_modes(gen_dir, train_dir, tmp_path):
    expected = {"reject": "rejection.csv", "noise": "noise.csv",
                "histogram": "histogram.csv", "norms": "weight_norms.csv",
                "partitions": "partitions.csv"}
    for mode, artifact in expected.items():
        out = tmp_path / mode
        code = run("--out", out, "eval", *corpus_args(gen_dir),
                   "--features", gen_dir / "features.csv",
                   "--checkpoint", train_dir / "model.ckpt", "--mode", mode,
                   "--etas", 0.0, 1.0)
        assert code == EXIT_OK, mode
        assert (out / artifact).exists(), mode


def test_eval_mcdropout(gen_dir, train_dir, tmp_path):
    out = tmp_path / "mc"
    code = run("--out", out, "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--checkpoint", train_dir / "model.ckpt", "--mode", "mcdropout",
               "--passes", 4)
    assert code == EXIT_OK
    payload = json.loads((out / "mcdropout.json").read_text())
    assert payload["passes"] == 4
    assert payload["model_uncertainty"] >= -1e-9


def test_unknown_tau_a_is_data_error(gen_dir, train_dir, tmp_path):
    code = run("--out", tmp_path / "x", "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--checkpoint", train_dir / "model.ckpt", "--mode", "metrics",
               "--tau-a", 0.33)
    assert code == EXIT_DATA


def test_usage_errors(tmp_path):
    assert run("frobnicate") == EXIT_USAGE
    assert run("train") == EXIT_USAGE  # missing required corpus arguments
    assert run("--seed", -1, "--out", tmp_path / "g", "gen") == EXIT_USAGE
    assert not (tmp_path / "g").exists()
    with contextlib.chdir(tmp_path):  # an accepted "" would write here
        assert run("--out", "", "gen") == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode, flags", [
    ("mcdropout", ["--passes", 1]),
    ("mcdropout", ["--drop-rate", 0]),
    ("histogram", ["--bins", 1]),
    ("reject", ["--fractions", 0.5, 0.1]),
    ("reject", ["--fractions", 1.0]),
])
def test_eval_argument_out_of_range_is_usage_error(tmp_path, capsys, mode, flags):
    # the input files do not exist: the arguments are rejected before any is read
    missing = tmp_path / "missing"
    code = run("--out", tmp_path / "e", "eval", *corpus_args(missing),
               "--features", missing / "features.csv", "--checkpoint", missing / "m.ckpt",
               "--mode", mode, *flags)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "Traceback" not in err and "error:" in err
    assert not (tmp_path / "e").exists()


def test_negative_eta_is_data_error(gen_dir, train_dir, tmp_path, capsys):
    code = run("--out", tmp_path / "e", "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--checkpoint", train_dir / "model.ckpt", "--mode", "noise", "--etas", -1)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and "eta must be nonnegative" in err


@pytest.mark.parametrize("flag", ["--dim", "--videos", "--segments"])
def test_gen_empty_corpus_is_data_error(tmp_path, capsys, flag):
    argv = gen_args(tmp_path / "g")
    argv[argv.index(flag) + 1] = 0
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and "must be >= 1" in err
    assert not (tmp_path / "g" / "features.csv").exists()


def test_missing_file_is_data_error(tmp_path):
    code = run("--out", tmp_path / "s", "stats",
               "--annotations", tmp_path / "missing.csv",
               "--verbs", tmp_path / "missing.csv",
               "--nouns", tmp_path / "missing.csv")
    assert code == EXIT_DATA


def test_bad_config_key_is_data_error(gen_dir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed=9\n")
    code = run("--config", config, "--out", tmp_path / "t", "train",
               *corpus_args(gen_dir), "--features", gen_dir / "features.csv")
    assert code == EXIT_DATA


def test_config_file_overrides(gen_dir, tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text("epochs=1  # fast\nbatch_size=16\n")
    out = tmp_path / "t"
    assert run("--config", config, "--out", out, "train", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv") == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_same_seed_reruns_byte_identical(tmp_path):
    first = tmp_path / "run"
    assert run(*gen_args(first, seed=7)) == EXIT_OK
    snap_gen = _snapshot(first)
    import shutil
    shutil.rmtree(first)
    assert run(*gen_args(first, seed=7)) == EXIT_OK
    assert _snapshot(first) == snap_gen

    train_out = tmp_path / "run_train"
    args = ["--seed", 7, "--out", train_out, "train", *corpus_args(first),
            "--features", first / "features.csv", "--epochs", 1,
            "--batch-size", 16]
    assert run(*args) == EXIT_OK
    snap_train = _snapshot(train_out)
    shutil.rmtree(train_out)
    assert run(*args) == EXIT_OK
    assert _snapshot(train_out) == snap_train


def _corrupt(blob, old, new):
    assert blob.count(old) == 1 and len(old) == len(new)
    return blob.replace(old, new)


# each case breaks one part of a valid checkpoint: (damage, expected message)
CHECKPOINT_DAMAGE = {
    "magic": (lambda b: b"NOTACKPT" + b[8:], "not a checkpoint file"),
    "version": (lambda b: b[:8] + (2).to_bytes(4, "little") + b[12:],
                "unsupported checkpoint version 2"),
    "meta_json": (lambda b: _corrupt(b, b'"feature_dim"', b'"feature_dim '),
                  "meta is not UTF-8 JSON"),
    "meta_layout": (lambda b: _corrupt(b, b'"pooling": "mean"', b'"pooling": "mode"'),
                    "meta lacks a valid model layout"),
    "truncated": (lambda b: b[:len(b) // 2], "checkpoint truncated in"),
    "names": (lambda b: _corrupt(b, b"head.Wc", b"head.Xc"), "parameter names"),
    "shape": (lambda b: _corrupt(b, b'"hidden_dim": 32', b'"hidden_dim": 31'),
              "shape mismatch for"),
    # a layout of 10**6 x 10**6 matrices and no parameter blocks: rejected
    # before any parameter is allocated
    "huge_layout": (lambda b: _layout(b[:12], 10**6, []), "parameter names"),
    # blocks with no data whose shapes numpy cannot build
    "huge_empty_block": (lambda b: _layout(b[:12], 2, [(b"head.Wc", (0, 2**63))]),
                         "parameter names"),
    "too_many_axes": (lambda b: _layout(b[:12], 2, [(b"head.Wc", (0,) * 70)]),
                      "parameter names"),
    # JSON nested deeper than the parser recurses
    "deep_meta": (lambda b: b[:12] + (10**5).to_bytes(4, "little") + b"[" * 10**5,
                  "meta is not UTF-8 JSON"),
}


def _layout(head, dim, blocks):
    """head, a meta with feature and hidden size dim, then (name, shape)
    blocks of zeros, in the order save_checkpoint writes them."""
    meta = json.dumps({"feature_dim": dim, "hidden_dim": dim, "num_classes": 6,
                       "pooling": "mean"}).encode("utf-8")
    parts = [head, len(meta).to_bytes(4, "little"), meta, len(blocks).to_bytes(4, "little")]
    for name, shape in blocks:
        parts += [len(name).to_bytes(4, "little"), name, len(shape).to_bytes(4, "little"),
                  *(d.to_bytes(8, "little") for d in shape), bytes(8 * math.prod(shape))]
    return b"".join(parts)


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_bad_checkpoint_is_data_error(gen_dir, train_dir, tmp_path, capsys, damage):
    corrupt, message = CHECKPOINT_DAMAGE[damage]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt((train_dir / "model.ckpt").read_bytes()))
    code = run("--out", tmp_path / "e", "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--checkpoint", bad, "--mode", "metrics")
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and message in err


@pytest.mark.parametrize("line", [
    "delta=0", "delta=-0.25", "delta=0.4", "alpha=1.0", "alpha=-0.1", "beta=-1",
    "gamma=-1e-6", "pooling=median", "batch_size=1", "epochs=0", "epochs=abc",
    "families_per_step=0", "hidden_dim=0", "tau_o=1e308", "delta=1e-300",
    "learning_rate=nan", "momentum=inf", "weight_decay=-inf", "gamma=nan",
    "learning_rate=0", "learning_rate=-1", "momentum=-5", "weight_decay=-1",
])
def test_invalid_train_config_is_data_error(gen_dir, tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    code = run("--config", config, "--out", tmp_path / "t", "train",
               *corpus_args(gen_dir), "--features", gen_dir / "features.csv")
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and "data error" in err
    assert not (tmp_path / "t" / "model.ckpt").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_diverging_finite_config_is_numerical_failure(gen_dir, tmp_path, capsys):
    config = tmp_path / "steep.cfg"
    config.write_text("learning_rate=1e150\n")
    code = run("--config", config, "--out", tmp_path / "t", "train",
               *corpus_args(gen_dir), "--features", gen_dir / "features.csv")
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "Traceback" not in err and "numerical failure: non-finite loss" in err
    assert not (tmp_path / "t" / "model.ckpt").exists()


@pytest.fixture(scope="module")
def nan_features(gen_dir, tmp_path_factory):
    lines = (gen_dir / "features.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = "nan"
    lines[5] = ",".join(fields)
    path = tmp_path_factory.mktemp("cli") / "features_nan.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, fields[0]


def test_non_finite_features_rejected_by_train(gen_dir, nan_features, tmp_path, capsys):
    path, video = nan_features
    code = run("--out", tmp_path / "t", "train", *corpus_args(gen_dir),
               "--features", path, "--epochs", 1)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and f"video {video}: non-finite" in err


def test_non_finite_features_rejected_by_eval(gen_dir, train_dir, nan_features, tmp_path,
                                              capsys):
    path, video = nan_features
    code = run("--out", tmp_path / "e", "eval", *corpus_args(gen_dir),
               "--features", path, "--checkpoint", train_dir / "model.ckpt",
               "--mode", "metrics")
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"video {video}: non-finite" in err
    assert not (tmp_path / "e" / "metrics.json").exists()


def _damage_line(text, lineno, column, value):
    lines = text.splitlines()
    fields = lines[lineno].split(",")
    fields[column] = value
    lines[lineno] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8")


# each case breaks one input file of train: (file, damage, expected message)
INPUT_DAMAGE = {
    "non_numeric_feature": ("features.csv", lambda t: _damage_line(t, 5, 3, "1.0x"),
                            "non-numeric feature value"),
    "non_integer_snippet_idx": ("features.csv", lambda t: _damage_line(t, 5, 1, "four"),
                                "features.csv:6: snippet_idx 'four' is not an integer"),
    "features_not_utf8": ("features.csv",
                          lambda t: t.encode("utf-8").replace(b"vid0001", b"vid\xff001", 1),
                          "not UTF-8"),
    "non_finite_annotation_time": ("annotations.csv",
                                   lambda t: (t + "vid0000,1e308,inf,0,0\n").encode("utf-8"),
                                   "annotations.csv:50: non-finite start_s or stop_s"),
    "annotations_not_utf8": ("annotations.csv",
                             lambda t: t.encode("utf-8").replace(b"vid0001", b"vid\xfe001", 1),
                             "can't decode byte 0xfe"),
    # csv refuses a field longer than 131,072 characters
    "annotation_field_too_long": ("annotations.csv",
                                  lambda t: (t + "v" * 200_000 + ",0.0,1.0,0,0\n").encode(),
                                  "field larger than field limit"),
    "verb_field_too_long": ("verbs.csv", lambda t: (t + "6," + "v" * 200_000 + "\n").encode(),
                            "field larger than field limit"),
    "annotation_extra_column": ("annotations.csv",
                                lambda t: (t + "vid0000,0.0,1.0,0,0,EXTRA,MORE\n").encode(),
                                "annotations.csv:50: more fields than the header"),
    "verb_extra_column": ("verbs.csv", lambda t: (t + "0,a,EXTRA\n").encode(),
                          "verbs.csv:8: malformed row"),
    "verb_duplicate_id": ("verbs.csv", lambda t: (t + "0,wash\n").encode(),
                          "verbs.csv:8: verb_id 0 repeats line 2"),
    # the message names the physical line, counting the blank lines the reader skips
    "annotation_after_blank_lines": ("annotations.csv",
                                     lambda t: (t + "\n\nvid0000,x,1.0,0,0\n").encode(),
                                     "annotations.csv:52: malformed row"),
}


@pytest.mark.parametrize("damage", sorted(INPUT_DAMAGE))
def test_malformed_input_is_data_error(gen_dir, tmp_path, capsys, damage):
    name, corrupt, message = INPUT_DAMAGE[damage]
    inputs = {n: gen_dir / n for n in ("annotations.csv", "features.csv", "verbs.csv")}
    inputs[name] = tmp_path / name
    inputs[name].write_bytes(corrupt((gen_dir / name).read_text(encoding="utf-8")))
    code = run("--out", tmp_path / "t", "train", "--annotations", inputs["annotations.csv"],
               "--verbs", inputs["verbs.csv"], "--nouns", gen_dir / "nouns.csv",
               "--features", inputs["features.csv"], "--epochs", 1)
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and message in err
    assert not (tmp_path / "t" / "model.ckpt").exists()


def _eval_noise_mean_u(gen_dir, checkpoint, out, capsys):
    code = run("--out", out, "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv", "--checkpoint", checkpoint,
               "--mode", "noise", "--etas", 0)
    assert code == EXIT_OK
    rows = (out / "noise.csv").read_text().splitlines()
    return float(rows[1].split(",")[2]), capsys.readouterr().err


def test_eval_uses_the_window_of_the_checkpoint(gen_dir, tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("tau_o = 1.0\nepochs = 1\nbatch_size = 16\n")
    train_out = tmp_path / "t"
    assert run("--config", config, "--out", train_out, "train", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv") == EXIT_OK
    model, meta = load_checkpoint(train_out / "model.ckpt")
    assert (meta["tau_o"], meta["tau_a"], meta["delta"]) == (1.0, 2.0, 0.25)
    assert meta["tau_a_grid"] == [2.0, 1.5, 1.0, 0.5]

    mean_u, err = _eval_noise_mean_u(gen_dir, train_out / "model.ckpt",
                                     tmp_path / "e", capsys)
    assert "warning" not in err
    vocab = read_vocabulary(gen_dir / "verbs.csv", gen_dir / "nouns.csv")
    corpus = corpus_from_rows(read_annotations(gen_dir / "annotations.csv"), vocab)
    store = read_feature_csv(gen_dir / "features.csv")
    expected = {}
    for tau_o in (1.0, 1.5):
        window = AnticipationWindow(tau_o=tau_o, tau_a=2.0, delta=0.25)
        observed, _, _ = window_samples(corpus, store, window)
        _, uncs = evaluate_model(model, observed, window.n_a)
        expected[tau_o] = float(uncs[:, window.anticipation_taus().index(1.0)].mean())
    assert mean_u == expected[1.0] != expected[1.5]


def test_eval_of_checkpoint_without_window_warns(gen_dir, train_dir, tmp_path, capsys):
    model, _ = load_checkpoint(train_dir / "model.ckpt")
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, model, meta={"seed": 0})
    mean_u, err = _eval_noise_mean_u(gen_dir, old, tmp_path / "old", capsys)
    assert err.count("warning:") == 1 and "does not record its training window" in err
    assert mean_u == _eval_noise_mean_u(gen_dir, train_dir / "model.ckpt",
                                        tmp_path / "new", capsys)[0]


@pytest.mark.parametrize("window", [
    {"tau_o": 1.3}, {"delta": 0}, {"delta": None}, {"tau_a": float("nan")},
    {"tau_o": "1.5"}, {"tau_a_grid": [1.0, 2.0]}, {"tau_a_grid": None},
])
def test_invalid_checkpoint_window_is_data_error(gen_dir, train_dir, tmp_path, capsys,
                                                 window):
    model, meta = load_checkpoint(train_dir / "model.ckpt")
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, model, meta=meta | window)
    code = run("--out", tmp_path / "e", "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv", "--checkpoint", bad,
               "--mode", "metrics")
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "Traceback" not in err and "invalid window" in err
    assert not (tmp_path / "e" / "metrics.json").exists()


# sha256 of every eval report on the fixture corpus, default arguments
# (mcdropout uses 50 passes)
EVAL_DIGESTS = {
    "metrics": ("metrics.json",
                "878b20742191c660ad2064eef71c109f1f1d3c5e36270fa3ac22f12e1d9dfee2"),
    "mcdropout": ("mcdropout.json",
                  "67e9c7f6e4b52aa5d5111f39f1333d158155b3b789b18a5037fe31f81509e840"),
    "noise": ("noise.csv",
              "8e61ef987dfd5eb578b509660fdf302694aa521e26b351ee9f81e6ea869b0fa6"),
    "reject": ("rejection.csv",
               "fd37e2c050d748a43f1e6b29addba48aeed53f9ee75ebc96a6701430bc0a4b66"),
    "histogram": ("histogram.csv",
                  "bfa4989e867617e63790d03934ab86bf26a5f771f1f2fb0c09f01f5351a3fdf6"),
    "norms": ("weight_norms.csv",
              "61655b80b73acee4326921139c323f25518d081aea4681f5943a9bec74912e28"),
    "partitions": ("partitions.csv",
                   "18caae5c5632c05b9de27a1a6380458c2e06086edfd152347efa6eb3e220e50c"),
}


@pytest.mark.parametrize("mode", sorted(EVAL_DIGESTS))
def test_eval_outputs_pinned(gen_dir, train_dir, tmp_path, mode):
    name, digest = EVAL_DIGESTS[mode]
    out = tmp_path / mode
    assert run("--out", out, "eval", *corpus_args(gen_dir),
               "--features", gen_dir / "features.csv",
               "--checkpoint", train_dir / "model.ckpt", "--mode", mode) == EXIT_OK
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the exit-code contract under random config files and mutated argv

CONFIG_KEYS = ["alpha", "beta", "gamma", "learning_rate", "momentum", "weight_decay",
               "batch_size", "epochs", "tau_o", "tau_a", "delta", "hidden_dim", "pooling",
               "families_per_step", "seed", "tau_a_grid", "warp_speed", ""]
# small positive ints only: a large epochs, hidden_dim or batch count would be slow
CONFIG_VALUES = ["0", "-1", "1", "2", "3", "0.5", "0.25", "1.5", "-0.0", "1e-300", "5e-324",
                 "1e308", "nan", "inf", "-inf", "", "x", "mean", "max", "1e3", "0x3", "1_0"]
GLOBAL_FLAGS = ["--seed", "--config", "--out"]
FLAGS = GLOBAL_FLAGS + [
    "--epochs", "--passes", "--mode", "--tau-a", "--etas", "--bins", "--fractions",
    "--drop-rate", "--batch-size", "--learning-rate", "--alpha", "--beta", "--gamma",
    "--profile", "--features", "--checkpoint", "--annotations", "--verbs", "--nouns",
    "--edges", "--classes", "-h"]
VALUES = ["-1", "0", "1", "2", "0.25", "0.5", "0.99", "-0.0", "nan", "inf", "-inf", "1e308",
          "x", "", "desk", "metrics", "noise", "mcdropout", "reject", "train", "{missing}",
          "{tmp}", "{annotations}", "{features}", "{verbs}", "{checkpoint}"]


def _config_lines():
    line = st.one_of(
        st.builds("{}{}{}".format, st.sampled_from(CONFIG_KEYS),
                  st.sampled_from(["=", " = ", "==", ":"]), st.sampled_from(CONFIG_VALUES)),
        st.sampled_from(["# comment", "epochs", "=", "pooling=mean # trailing"]),
        st.text(max_size=12))
    return st.lists(line, max_size=5).map(lambda lines: "\n".join(lines).encode())


# an edit sets a flag's value (adding the flag if it is absent), deletes a
# token or inserts one anywhere
_EDITS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.tuples(st.just("delete"), st.integers(0, 40), st.just("")),
    st.tuples(st.just("insert"), st.integers(0, 40), st.sampled_from(FLAGS + VALUES))),
    max_size=3)


def _mutate(argv, edits, paths):
    argv = list(argv)
    for kind, where, token in edits:
        token = token.format(**paths)
        if kind == "set" and where in argv[:-1]:
            argv[argv.index(where) + 1] = token
        elif kind == "set":
            argv = [where, token, *argv] if where in GLOBAL_FLAGS else [*argv, where, token]
        elif kind == "insert":
            argv.insert(where % (len(argv) + 1), token)
        elif argv:
            del argv[where % len(argv)]
    return argv


@pytest.fixture(scope="module")
def fuzz_corpus(gen_dir, train_dir, tmp_path_factory):
    """A private copy of the fixture corpus: a mutated argv may name it as an input."""
    root = tmp_path_factory.mktemp("fuzz")
    for name in ("annotations.csv", "features.csv", "verbs.csv", "nouns.csv"):
        (root / name).write_bytes((gen_dir / name).read_bytes())
    (root / "model.ckpt").write_bytes((train_dir / "model.ckpt").read_bytes())
    return root


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["train", "eval", "stats"]),
       mode=st.sampled_from(["metrics", "noise", "mcdropout", "reject", "histogram",
                             "norms", "partitions"]),
       config=st.none() | _config_lines(), edits=_EDITS)
def test_cli_fuzz_keeps_the_exit_code_contract(fuzz_corpus, command, mode, config, edits):
    # an edit may drop --out, so the default "out" lands in the working directory
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        tmp = Path(tmp)
        paths = {"missing": str(tmp / "missing.csv"), "tmp": str(tmp),
                 "annotations": str(fuzz_corpus / "annotations.csv"),
                 "features": str(fuzz_corpus / "features.csv"),
                 "verbs": str(fuzz_corpus / "verbs.csv"),
                 "checkpoint": str(fuzz_corpus / "model.ckpt")}
        argv = ["--out", str(tmp / "out")]
        if config is not None:
            (tmp / "run.cfg").write_bytes(config)
            argv += ["--config", str(tmp / "run.cfg")]
        argv += [command, *map(str, corpus_args(fuzz_corpus))]
        if command == "train":
            argv += ["--features", paths["features"], "--epochs", "1"]
        elif command == "eval":
            argv += ["--features", paths["features"], "--checkpoint", paths["checkpoint"],
                     "--mode", mode, "--passes", "2"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(_mutate(argv, edits, paths))
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
