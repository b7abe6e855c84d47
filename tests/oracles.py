"""Brute-force reference implementations the tests compare the library against.

Soft labels one class at a time: a co-occurrence set of merged scores per
class (merge_rows), their union per pair (pair_set), and single-sample and
pair labels built from those sets.  uban.labels must give the same pair
labels, byte for byte, from one boolean support table.  Also the elementary
ops that ad.linear and ad.gru_cell fuse, the per-pair and per-family losses
that uban.losses batches, and the matrix CSV reader.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from uban import autodiff as ad
from uban.autodiff import ShapeMismatch, Tensor
from uban.cooccur import DataError, UncertaintyMatrix
from uban.losses import soft_cross_entropy


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


def matmul(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data @ b.data

    def back(g):
        ad._accumulate(a, g @ b.data.T)
        ad._accumulate(b, a.data.T @ g)

    return ad._make(out_data, (a, b), back, "matmul")


def exp(a):
    a = ad._as_tensor(a)
    out_data = np.exp(a.data)

    def back(g):
        ad._accumulate(a, g * out_data)

    return ad._make(out_data, (a,), back, "exp")


def _sigmoid(x):
    with np.errstate(over="ignore"):  # exp overflow saturates to exactly 0
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a):
    a = ad._as_tensor(a)
    out_data = _sigmoid(a.data)

    def back(g):
        ad._accumulate(a, g * out_data * (1.0 - out_data))

    return ad._make(out_data, (a,), back, "sigmoid")


def tanh(a):
    a = ad._as_tensor(a)
    out_data = np.tanh(a.data)

    def back(g):
        ad._accumulate(a, g * (1.0 - out_data * out_data))

    return ad._make(out_data, (a,), back, "tanh")


def anticipation_loss(log_probs, label):
    """Cross-entropy of adjusted log-probs (adjust_distribution) against a soft label.

    For a batched distribution the per-sample losses are averaged.
    """
    label = np.asarray(label)
    sums = label.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ValueError(f"label rows must sum to 1, got {sums}")
    return soft_cross_entropy(log_probs, label)


def mix_features(features, weights):
    """Weighted sum of feature tensors; weights must match the feature count."""
    features = [ad._as_tensor(f) for f in features]
    weights = list(weights)
    if len(features) != len(weights):
        raise ValueError(f"{len(features)} features but {len(weights)} weights")
    mixed = features[0] * ad._as_tensor(weights[0])
    for f, w in zip(features[1:], weights[1:]):
        mixed = mixed + f * ad._as_tensor(w)
    return mixed


def permutation_probability(u, order):
    """Probability of observing a ranking under the Plackett-Luce model.

    u: (M,) positive tensor; order[j] is the member placed at rank j.  At each
    rank the placed member competes against everything not yet placed.
    """
    u = ad._as_tensor(u)
    M = u.data.shape[0]
    if sorted(order) != list(range(M)):
        raise ValueError(f"order {order} is not a permutation of 0..{M - 1}")
    if not (u.data > 0).all():
        raise ValueError("uncertainties must be positive")
    prob = Tensor(1.0)
    for j in range(M):
        denom = ad.tensor_sum(u[list(order[j:])])
        prob = prob * (u[order[j]] / denom)
    return prob


def trul_loss(families):
    """Negative log-likelihood of the ideal (descending) uncertainty ranking.

    families: list of (M,) positive tensors, each ordered by decreasing
    anticipation horizon, so the ideal ranking is the identity.  Families with
    fewer than two members are skipped; returns (loss, skipped_count).
    """
    terms = []
    skipped = 0
    for u in families:
        u = ad._as_tensor(u)
        M = u.data.shape[0]
        if M < 2:
            skipped += 1
            continue
        terms.append(ad.neg(ad.log(permutation_probability(u, list(range(M))))))
    if not terms:
        return Tensor(0.0), skipped
    return sum(terms[1:], terms[0]), skipped


def read_matrix_csv(path, kind="internal"):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = len(header) - 1
        values = np.zeros((n, n), dtype=np.int64)
        for row in reader:
            i = int(row[0])
            values[i] = [int(v) for v in row[1:]]
    return UncertaintyMatrix(kind, values)
