"""Metrics and reliability/robustness report harnesses.

All tie-breaks are deterministic (ascending class id for ranked classes,
ascending sample index for equally uncertain samples) so every report is
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NoiseConfig, pollute

__all__ = [
    "MetricReport", "RejectionCurve", "ClassPartitionReport",
    "topk_accuracy", "mean_topk_recall", "metric_report", "rejection_curve",
    "noise_sweep", "uncertainty_histogram", "weight_norm_report",
    "class_partition_report", "sample_partition_report", "kendall_tau",
]


@dataclass
class MetricReport:
    top1: float
    top5: float
    mean_top5_recall: float | None
    per_class_recall: dict[int, float]
    sample_count: int


@dataclass
class RejectionCurve:
    fractions: list[float]
    accuracies: list[float]


@dataclass
class ClassPartitionReport:
    labels: list[str]
    accuracies: list[float | None]
    sizes: list[int]


def _topk_sets(probs, k):
    # stable argsort on -probs: ties resolve to the ascending class id
    order = np.argsort(-probs, axis=1, kind="stable")
    return order[:, :k]


def topk_accuracy(probs, truths, k):
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths)
    if probs.size == 0:
        raise ValueError("topk_accuracy needs at least one sample")
    if k < 1:
        raise ValueError("k must be >= 1")
    top = _topk_sets(probs, k)
    return float((top == truths[:, None]).any(axis=1).mean())


def mean_topk_recall(probs, truths, k, many_shot_threshold=10):
    """Per-class top-k recall averaged over classes with enough instances.

    Returns (mean, per_class_recall); the mean is None when no class meets
    the threshold.
    """
    if many_shot_threshold < 1:
        raise ValueError("many_shot_threshold must be >= 1")
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths)
    hits = (_topk_sets(probs, k) == truths[:, None]).any(axis=1)
    per_class = {}
    for c in np.unique(truths):
        mask = truths == c
        per_class[int(c)] = float(hits[mask].mean())
    eligible = [c for c in per_class if (truths == c).sum() >= many_shot_threshold]
    mean = float(np.mean([per_class[c] for c in eligible])) if eligible else None
    return mean, per_class


def metric_report(probs, truths, many_shot_threshold=10):
    mean_recall, per_class = mean_topk_recall(probs, truths, 5, many_shot_threshold)
    return MetricReport(
        top1=topk_accuracy(probs, truths, 1),
        top5=topk_accuracy(probs, truths, 5),
        mean_top5_recall=mean_recall,
        per_class_recall=per_class,
        sample_count=len(truths),
    )


def rejection_curve(probs, truths, uncertainties, fractions, k=5):
    """Top-k accuracy on the samples left after dropping the most uncertain.

    For each fraction R the ceil(R*N) most-uncertain samples are removed
    (ties by ascending sample index).
    """
    fractions = list(fractions)
    if any(b < a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be sorted ascending")
    if any(not 0.0 <= r < 1.0 for r in fractions):
        raise ValueError("fractions must lie in [0, 1)")
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths)
    uncertainties = np.asarray(uncertainties, dtype=np.float64)
    n = len(truths)
    order = np.argsort(-uncertainties, kind="stable")  # most uncertain first
    accs = []
    for r in fractions:
        keep = np.sort(order[math.ceil(r * n):])
        accs.append(topk_accuracy(probs[keep], truths[keep], k))
    return RejectionCurve(fractions=fractions, accuracies=accs)


def noise_sweep(evaluate_fn, store, etas, seed=0):
    """Evaluate on polluted copies of the features, one row per intensity.

    evaluate_fn(store) must return (top5_accuracy, mean_uncertainty).
    Returns a list of (eta, top5, mean_u) rows.  Every intensity is checked
    before the first is evaluated, so a bad one costs no pollution.
    """
    rows = []
    for cfg in [NoiseConfig(eta=eta, seed=seed) for eta in etas]:
        top5, mean_u = evaluate_fn(pollute(store, cfg))
        rows.append((float(cfg.eta), float(top5), float(mean_u)))
    return rows


def uncertainty_histogram(uncertainties, bins):
    """Min-max normalize to [0, 1] and bin; returns (edges, counts, degenerate).

    Constant input cannot be normalized; it lands in the first bin and the
    degenerate flag is set.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    u = np.asarray(uncertainties, dtype=np.float64)
    lo, hi = u.min(), u.max()
    edges = np.linspace(0.0, 1.0, bins + 1)
    if hi == lo:
        counts = np.zeros(bins, dtype=np.int64)
        counts[0] = u.size
        return edges, counts, True
    normalized = (u - lo) / (hi - lo)
    counts, _ = np.histogram(normalized, bins=edges)
    return edges, counts, False


def weight_norm_report(classifier_weights, class_counts):
    """Per-class L2 norms of the classifier rows, ordered by class frequency.

    classifier_weights: (C, d) matrix (one row per class).  Returns a list of
    (class_id, count, norm) in descending-frequency order plus head/tail mean
    norms over the top and bottom frequency quartiles.
    """
    W = np.asarray(classifier_weights, dtype=np.float64)
    counts = np.asarray(class_counts)
    norms = np.linalg.norm(W, axis=1)
    order = sorted(range(len(counts)), key=lambda c: (-counts[c], c))
    rows = [(c, int(counts[c]), float(norms[c])) for c in order]
    quart = max(1, len(order) // 4)
    head_mean = float(np.mean([norms[c] for c in order[:quart]]))
    tail_mean = float(np.mean([norms[c] for c in order[-quart:]]))
    return rows, head_mean, tail_mean


def class_partition_report(merged_matrix, probs, truths, k=5):
    """Accuracy per partition of class pairs ranked by merged score.

    Pairs (i<j) are ranked by descending merged value (ties by index) and cut
    into four rank quartiles.  A class maps to the partition of its
    highest-ranked pair; classes in no pair form a final partition, so the
    partitions cover the evaluated set.
    """
    values = np.asarray(merged_matrix, dtype=np.float64)
    C = values.shape[0]
    pairs = [(i, j) for i in range(C) for j in range(i + 1, C)]
    pairs.sort(key=lambda p: (-values[p], p))

    cuts = [math.ceil(len(pairs) * q / 4) for q in (1, 2, 3, 4)]

    class_part = {c: len(cuts) for c in range(C)}  # default: no-pair partition
    lo = 0
    for part, hi in enumerate(cuts):
        for i, j in pairs[lo:hi]:
            if values[i, j] <= 0:
                continue
            class_part[i] = min(class_part[i], part)
            class_part[j] = min(class_part[j], part)
        lo = hi
    labels = ["Q1 (most uncertain)", "Q2", "Q3", "Q4", "No co-occurrence"]

    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths)
    accs, sizes = [], []
    for part in range(len(labels)):
        mask = np.array([class_part[int(t)] == part for t in truths])
        sizes.append(int(mask.sum()))
        if mask.any():
            accs.append(topk_accuracy(probs[mask], truths[mask], k))
        else:
            accs.append(None)
    return ClassPartitionReport(labels=labels, accuracies=accs, sizes=sizes)


def sample_partition_report(probs, truths, uncertainties, k=5):
    """Accuracy per uncertainty quartile of the samples (most uncertain first)."""
    u = np.asarray(uncertainties, dtype=np.float64)
    order = np.argsort(-u, kind="stable")
    n = len(order)
    labels, accs, sizes = [], [], []
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths)
    lo = 0
    for q in range(4):
        hi = math.ceil(n * (q + 1) / 4)
        idx = order[lo:hi]
        labels.append(f"Top {q + 1}/4" if q == 0 else f"Part {q + 1}/4")
        sizes.append(len(idx))
        accs.append(topk_accuracy(probs[idx], truths[idx], k) if len(idx) else None)
        lo = hi
    return ClassPartitionReport(labels=labels, accuracies=accs, sizes=sizes)


def kendall_tau(values):
    """Kendall rank correlation between a value sequence and the descending
    ideal: +1 when strictly decreasing, -1 when strictly increasing."""
    values = list(values)
    n = len(values)
    if n < 2:
        raise ValueError("kendall_tau needs at least two values")
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] > values[j]:
                concordant += 1
            elif values[i] < values[j]:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)
