"""Brute-force reference implementations the tests compare the library against.

Soft labels one class at a time: a co-occurrence set of merged scores per
class (merge_rows), their union per pair (pair_set), and single-sample and
pair labels built from those sets.  uban.labels must give the same pair
labels, byte for byte, from one boolean support table.
"""

from dataclasses import dataclass, field

import numpy as np

from uban.cooccur import DataError


@dataclass
class CooccurrenceSet:
    """Classes with a nonzero merged score against the target class(es)."""

    targets: tuple[int, ...]
    scores: dict[int, float] = field(default_factory=dict)

    @property
    def members(self):
        return set(self.scores)

    def __len__(self):
        return len(self.scores)


def merge_rows(internal_row, external_row, target_class, top_k=None):
    """Merge the two score rows and keep classes with a nonzero sum.

    The target class itself is always excluded.  An optional top_k cap keeps
    only the highest-scoring members (ties broken by ascending class id).
    """
    internal_row = np.asarray(internal_row, dtype=np.float64)
    external_row = np.asarray(external_row, dtype=np.float64)
    if internal_row.shape != external_row.shape:
        raise DataError(
            f"row length mismatch: {internal_row.shape} vs {external_row.shape}")
    merged = internal_row + external_row
    scores = {j: float(merged[j]) for j in range(merged.size)
              if j != target_class and merged[j] > 0}
    if top_k is not None and len(scores) > top_k:
        kept = sorted(scores, key=lambda j: (-scores[j], j))[:top_k]
        scores = {j: scores[j] for j in sorted(kept)}
    return CooccurrenceSet(targets=(target_class,), scores=scores)


@dataclass
class TargetLabel:
    probs: np.ndarray
    alpha: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)

    def sparse(self):
        """{class_id: prob} over the support, for export/inspection."""
        return {int(j): float(p) for j, p in enumerate(self.probs) if p > 0}


def _check_alpha(alpha):
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")


def single_label(c, co_set, alpha, num_classes):
    """Label for one sample with target class c.

    With an empty co-occurrence set the alpha mass collapses onto the target,
    so the label degenerates to one-hot.
    """
    _check_alpha(alpha)
    if not 0 <= c < num_classes:
        raise ValueError(f"class id {c} out of range for C={num_classes}")
    probs = np.zeros(num_classes)
    members = sorted(co_set.members - {c})
    if members:
        probs[c] = 1.0 - alpha
        probs[members] = alpha / len(members)
    else:
        probs[c] = 1.0
    return TargetLabel(probs, alpha)


def pair_label(c_i, c_j, co_set, alpha, num_classes):
    """Label for a mixed pair: (1-alpha)/2 on each target, alpha on the set."""
    _check_alpha(alpha)
    if c_i == c_j:
        raise ValueError(f"pair targets must differ, got {c_i} twice")
    probs = np.zeros(num_classes)
    members = sorted(co_set.members - {c_i, c_j})
    if members:
        probs[c_i] = probs[c_j] = (1.0 - alpha) / 2.0
        probs[members] = alpha / len(members)
    else:
        probs[c_i] = probs[c_j] = 0.5
    return TargetLabel(probs, alpha)


def pair_set(set_i, set_j, c_i, c_j):
    """Union of two per-class co-occurrence sets, targets excluded."""
    scores = {}
    for s in (set_i, set_j):
        for k, v in s.scores.items():
            if k in (c_i, c_j):
                continue
            scores[k] = scores.get(k, 0.0) + v
    return CooccurrenceSet(targets=(c_i, c_j), scores=scores)
