"""Command-line entry point: `uban {stats,gen,train,eval}`.

Every command writes a run manifest next to its outputs (config snapshot,
seed, input digests, produced files) so a run is reproducible from the
manifest alone.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cooccur import (DataError, build_external_matrix, build_internal_matrix,
                      corpus_from_rows, read_annotations, read_edge_dump,
                      read_vocabulary, write_matrix_csv)
from .data import (SyntheticSpec, generate_synthetic, read_feature_csv,
                   window_samples, write_annotation_csv, write_feature_csv,
                   write_vocab_csv)
from .evaluation import (class_partition_report, metric_report, noise_sweep,
                         rejection_curve, sample_partition_report,
                         uncertainty_histogram, weight_norm_report)
from .model import load_checkpoint, mc_dropout_forward, save_checkpoint
from .train import NumericalFailure, TrainConfig, evaluate_model, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_manifest(out_dir, command, config, seed, inputs, outputs):
    return _write_json(Path(out_dir) / "manifest.json", {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": sorted(str(p) for p in outputs),
    })


# config-file keys: every TrainConfig field except the seed (--seed) and the
# TRUL horizon grid, each cast to the type of its default
_CONFIG_CASTS = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)
                 if f.name not in ("seed", "tau_a_grid")}


def _read_config_file(path):
    """Documented key=value config format; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_CASTS:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_CASTS[key](value)
            except ValueError:
                raise DataError(f"{path}:{lineno}: {key} needs a "
                                f"{_CONFIG_CASTS[key].__name__}, got {value!r}") from None
    return values


def _load_inputs(args):
    vocab = read_vocabulary(args.verbs, args.nouns)
    rows = read_annotations(args.annotations)
    corpus = corpus_from_rows(rows, vocab)
    return vocab, corpus


# ---------------------------------------------------------------------------
# subcommands

def cmd_stats(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab, corpus = _load_inputs(args)
    internal = build_internal_matrix(corpus, vocab)
    outputs = [out / "internal.csv"]
    write_matrix_csv(internal, out / "internal.csv")

    merged = internal.values.astype(np.int64)
    inputs = [args.annotations, args.verbs, args.nouns]
    if args.edges:
        edges = read_edge_dump(args.edges)
        verb_m, noun_m, act_m = build_external_matrix(edges, vocab)
        for name, m in (("external_verb", verb_m), ("external_noun", noun_m),
                        ("external_activity", act_m)):
            write_matrix_csv(m, out / f"{name}.csv")
            outputs.append(out / f"{name}.csv")
        merged = merged + act_m.values
        inputs.append(args.edges)

    top = []
    C = merged.shape[0]
    for i in range(C):
        for j in range(i + 1, C):
            if merged[i, j] > 0:
                top.append((int(merged[i, j]), i, j))
    top.sort(key=lambda t: (-t[0], t[1], t[2]))
    outputs.append(_write_json(out / "summary.json", {
        "classes": C,
        "nonzero_pairs": len(top),
        "top_uncertain_pairs": [
            {"classes": [i, j], "score": s} for s, i, j in top[:20]],
    }))

    _write_manifest(out, "stats", {"edges": bool(args.edges)}, None, inputs, outputs)
    return EXIT_OK


def cmd_gen(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        num_classes=args.classes, branching=args.branching,
        successor_entropy=args.entropy, dim=args.dim,
        feature_noise=args.feature_noise, videos=args.videos,
        segments_per_video=args.segments, seed=args.seed)
    result = generate_synthetic(spec)

    write_annotation_csv(result.corpus, result.vocab, out / "annotations.csv")
    write_feature_csv(result.store, out / "features.csv")
    write_vocab_csv(result.vocab, out / "verbs.csv", out / "nouns.csv")
    _write_json(out / "successors.json",
                {str(c): {str(s): p for s, p in sorted(d.items())}
                 for c, d in sorted(result.successor_table.items())})
    outputs = [out / n for n in ("annotations.csv", "features.csv", "verbs.csv",
                                 "nouns.csv", "successors.json")]
    _write_manifest(out, "gen", vars(spec), args.seed, [], outputs)
    return EXIT_OK


def _train_config(args):
    overrides = _read_config_file(args.config) if args.config else {}
    for key in ("alpha", "beta", "gamma", "epochs", "batch_size", "learning_rate"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    overrides["seed"] = args.seed
    if args.profile == "desk":
        return TrainConfig.desk_profile(**overrides)
    return TrainConfig(**overrides)


def cmd_train(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab, corpus = _load_inputs(args)
    store = read_feature_csv(args.features)
    config = _train_config(args)

    model, log_rows = train(config, corpus, store, vocab,
                            log_path=out / "train_log.jsonl")
    save_checkpoint(out / "model.ckpt", model, meta={
        "seed": config.seed, "tau_o": config.tau_o, "tau_a": config.tau_a,
        "delta": config.delta, "tau_a_grid": list(config.tau_a_grid)})
    outputs = [out / "train_log.jsonl", out / "model.ckpt"]
    inputs = [args.annotations, args.features, args.verbs, args.nouns]
    if args.config:
        inputs.append(args.config)
    _write_manifest(out, "train", vars(config) | {"tau_a_grid": list(config.tau_a_grid)},
                    args.seed, inputs, outputs)
    return EXIT_OK


_WINDOW_KEYS = ("tau_o", "tau_a", "delta", "tau_a_grid")


def _checkpoint_window(meta, path):
    """The anticipation window the checkpoint was trained with.

    Checkpoints written before the window was recorded get the defaults,
    with a warning; a recorded window that is incomplete or invalid is a
    DataError.
    """
    if not any(key in meta for key in _WINDOW_KEYS):
        window = TrainConfig().window()
        print(f"warning: {path} does not record its training window; evaluating at "
              f"the default tau_o={window.tau_o}, tau_a={window.tau_a}, "
              f"delta={window.delta}", file=sys.stderr)
        return window

    def number(v):
        return type(v) in (int, float) and math.isfinite(v)

    values = {key: meta.get(key) for key in _WINDOW_KEYS}
    grid = values["tau_a_grid"]
    try:
        if not (all(number(values[key]) for key in _WINDOW_KEYS[:3])
                and isinstance(grid, list) and len(grid) >= 2 and all(map(number, grid))
                and all(b < a for a, b in zip(grid, grid[1:]))):
            raise DataError("expected finite numbers and a decreasing tau_a grid")
        return TrainConfig(tau_o=values["tau_o"], tau_a=values["tau_a"],
                           delta=values["delta"], tau_a_grid=tuple(grid)).window()
    except DataError as exc:
        raise DataError(f"{path}: invalid window {values} in checkpoint meta: "
                        f"{exc}") from None


def cmd_eval(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, meta = load_checkpoint(args.checkpoint)
    vocab, corpus = _load_inputs(args)
    store = read_feature_csv(args.features)
    if store.dim != model.feature_dim:
        raise DataError(f"feature dim {store.dim} does not match checkpoint "
                        f"dim {model.feature_dim}")
    window = _checkpoint_window(meta, args.checkpoint)
    taus = window.anticipation_taus()
    steps = [i for i, t in enumerate(taus) if abs(t - args.tau_a) < 1e-9]
    if not steps:
        raise DataError(f"tau_a {args.tau_a} not in anticipation grid {taus}")

    def forward(eval_store):
        """Windows, then probabilities, uncertainties and truths at --tau-a."""
        observed, truths, _ = window_samples(corpus, eval_store, window)
        probs, uncs = evaluate_model(model, observed, window.n_a)
        return observed, probs[:, steps[0], :], uncs[:, steps[0]], truths

    if args.mode != "noise":  # the noise sweep evaluates eta=0 itself
        observed, probs, uncs, truths = forward(store)
    outputs = []

    if args.mode == "metrics":
        report = metric_report(probs, truths)
        outputs.append(_write_json(out / "metrics.json", {
            "top1": report.top1, "top5": report.top5,
            "mean_top5_recall": report.mean_top5_recall,
            "per_class_recall": {str(k): v for k, v in
                                 sorted(report.per_class_recall.items())},
            "sample_count": report.sample_count,
        }))

    elif args.mode == "reject":
        curve = rejection_curve(probs, truths, uncs, args.fractions)
        outputs.append(_write_csv(out / "rejection.csv", ["R", "accuracy"],
                                  ([repr(r), repr(acc)] for r, acc in
                                   zip(curve.fractions, curve.accuracies))))

    elif args.mode == "noise":
        def evaluate(noisy_store):
            _, p, u, t = forward(noisy_store)
            return metric_report(p, t).top5, float(u.mean())

        rows = noise_sweep(evaluate, store, args.etas, seed=args.seed)
        outputs.append(_write_csv(out / "noise.csv", ["eta", "top5", "mean_u"],
                                  ([repr(v) for v in row] for row in rows)))

    elif args.mode == "histogram":
        edges, counts, degenerate = uncertainty_histogram(uncs, args.bins)
        outputs.append(_write_csv(out / "histogram.csv", ["bin_lo", "bin_hi", "count"],
                                  ([repr(float(lo)), repr(float(hi)), int(c)]
                                   for lo, hi, c in zip(edges[:-1], edges[1:], counts))))
        if degenerate:
            print("warning: constant uncertainties, histogram is degenerate",
                  file=sys.stderr)

    elif args.mode == "norms":
        counts = np.bincount(truths, minlength=model.num_classes)
        rows, head_mean, tail_mean = weight_norm_report(
            model.head_params["head.Wc"].data.T, counts)
        outputs.append(_write_csv(
            out / "weight_norms.csv", ["class_id", "instances", "l2_norm"],
            [[c, n, repr(norm)] for c, n, norm in rows]
            + [["head_mean", "", repr(head_mean)], ["tail_mean", "", repr(tail_mean)]]))

    elif args.mode == "partitions":
        internal = build_internal_matrix(corpus, vocab)
        reports = (("class_pairs", class_partition_report(internal.values, probs, truths)),
                   ("sample_uncertainty", sample_partition_report(probs, truths, uncs)))
        outputs.append(_write_csv(
            out / "partitions.csv", ["partitioning", "label", "samples", "top5"],
            ([name, label, size, "undefined" if acc is None else repr(acc)]
             for name, report in reports
             for label, acc, size in zip(report.labels, report.accuracies,
                                         report.sizes))))

    elif args.mode == "mcdropout":
        result = mc_dropout_forward(model, observed, window.n_a,
                                    passes=args.passes, drop_rate=args.drop_rate,
                                    seed=args.seed)
        outputs.append(_write_json(out / "mcdropout.json", {
            "passes": args.passes,
            "drop_rate": args.drop_rate,
            "model_uncertainty": result["model_uncertainty"],
            "data_uncertainty": float(uncs.mean()),
        }))

    inputs = [args.checkpoint, args.annotations, args.features, args.verbs, args.nouns]
    _write_manifest(out, f"eval:{args.mode}", {"mode": args.mode, "tau_a": args.tau_a},
                    args.seed, inputs, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _checked(cast, accept, what):
    """argparse type: cast the text, then reject values outside a range."""
    def parse(text):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = cast.__name__  # names the type in argparse's cast errors
    return parse


def _add_corpus_args(p):
    p.add_argument("--annotations", required=True)
    p.add_argument("--verbs", required=True)
    p.add_argument("--nouns", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uban",
        description="Uncertainty-boosted activity anticipation toolkit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="build co-occurrence matrices")
    _add_corpus_args(p)
    p.add_argument("--edges", default=None, help="knowledge edge dump TSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--branching", type=int, default=4)
    p.add_argument("--entropy", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--feature-noise", type=float, default=0.5)
    p.add_argument("--videos", type=int, default=50)
    p.add_argument("--segments", type=int, default=20)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the anticipation model")
    _add_corpus_args(p)
    p.add_argument("--features", required=True)
    p.add_argument("--profile", choices=["paper", "desk"], default="desk")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and write reports")
    _add_corpus_args(p)
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", required=True,
                   choices=["metrics", "reject", "noise", "histogram", "norms",
                            "partitions", "mcdropout"])
    p.add_argument("--tau-a", dest="tau_a", type=float, default=1.0)
    p.add_argument("--fractions", nargs="+", default=[0.0, 0.1, 0.2, 0.3],
                   type=_checked(float, lambda r: 0.0 <= r < 1.0, "in [0, 1)"),
                   help="ascending, each in [0, 1)")
    p.add_argument("--etas", type=float, nargs="+", default=[0.0, 1.0, 5.0, 10.0])
    p.add_argument("--bins", type=_checked(int, lambda n: n >= 2, ">= 2"), default=20)
    p.add_argument("--passes", type=_checked(int, lambda n: n >= 2, ">= 2"), default=50)
    p.add_argument("--drop-rate", dest="drop_rate", default=0.2,
                   type=_checked(float, lambda p: 0.0 < p < 1.0, "in (0, 1)"))
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fractions = getattr(args, "fractions", [])
        if fractions != sorted(fractions):
            parser.error(f"--fractions must be ascending, got {fractions}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
