"""Training objectives: temperature-adjusted cross-entropy, relative-
uncertainty feature mixing, listwise ranking of uncertainties over shrinking
anticipation horizons, and the squared-uncertainty regularizer.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "adjust_distribution", "soft_cross_entropy", "anticipation_loss",
    "relative_weights", "mix_features", "srul_loss", "permutation_probability",
    "trul_loss", "trul_loss_batched", "wd_loss",
]


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def adjust_distribution(logits, u_hat):
    """Log-softmax of logits / u_hat; u_hat acts as a per-sample temperature.

    logits: (C,) or (B, C); u_hat: positive scalar or (B, 1) tensor.
    """
    logits = _as_tensor(logits)
    u_hat = _as_tensor(u_hat)
    if not (u_hat.data > 0).all():
        raise ValueError(f"temperature must be positive, got min {u_hat.data.min()}")
    return ad.log_softmax(logits / u_hat, axis=logits.data.ndim - 1)


def soft_cross_entropy(log_probs, labels):
    """-mean(sum(labels * log_probs)) over rows; a 1-D input is a single row."""
    per_row = ad.tensor_sum(log_probs * _as_tensor(labels), axis=log_probs.data.ndim - 1)
    return ad.neg(ad.tensor_mean(per_row))


def anticipation_loss(log_probs, label):
    """Cross-entropy of adjusted log-probs (adjust_distribution) against a soft label.

    For a batched distribution the per-sample losses are averaged.
    """
    label = np.asarray(label)
    sums = label.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ValueError(f"label rows must sum to 1, got {sums}")
    return soft_cross_entropy(log_probs, label)


def relative_weights(u):
    """Normalize positive uncertainties to sum to 1 (scale invariant).

    u: (M,) tensor, or (B, M) for per-row normalization.
    """
    u = _as_tensor(u)
    if not (u.data > 0).all():
        raise ValueError(f"uncertainties must be positive, got min {u.data.min()}")
    axis = u.data.ndim - 1
    return u / ad.tensor_sum(u, axis=axis, keepdims=True)


def mix_features(features, weights):
    """Weighted sum of feature tensors; weights must match the feature count."""
    features = [_as_tensor(f) for f in features]
    weights = list(weights)
    if len(features) != len(weights):
        raise ValueError(f"{len(features)} features but {len(weights)} weights")
    mixed = features[0] * _as_tensor(weights[0])
    for f, w in zip(features[1:], weights[1:]):
        mixed = mixed + f * _as_tensor(w)
    return mixed


def srul_loss(mixed_log_probs_by_step, pair_labels):
    """Sample-wise relative uncertainty loss over one batch of pairs.

    mixed_log_probs_by_step: per anticipation step, the (P, C) log-probability
    tensor of the mixed pair distributions.  pair_labels: (P, C) soft labels.
    Cross-entropy is averaged over pairs and over steps.
    """
    labels = Tensor(np.asarray(pair_labels, dtype=np.float64))
    per_step = [soft_cross_entropy(lp, labels) for lp in mixed_log_probs_by_step]
    return sum(per_step[1:], per_step[0]) * Tensor(1.0 / len(per_step))


def permutation_probability(u, order):
    """Probability of observing a ranking under the Plackett-Luce model.

    u: (M,) positive tensor; order[j] is the member placed at rank j.  At each
    rank the placed member competes against everything not yet placed.
    """
    u = _as_tensor(u)
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
        u = _as_tensor(u)
        M = u.data.shape[0]
        if M < 2:
            skipped += 1
            continue
        terms.append(ad.neg(ad.log(permutation_probability(u, list(range(M))))))
    if not terms:
        return Tensor(0.0), skipped
    return sum(terms[1:], terms[0]), skipped


def trul_loss_batched(u_mat):
    """Vectorized identity-ranking loss for a (F, M) uncertainty tensor.

    Equals the sum of per-family trul losses; used on the training hot path.
    """
    u_mat = _as_tensor(u_mat)
    if not (u_mat.data > 0).all():
        raise ValueError("uncertainties must be positive")
    M = u_mat.data.shape[1]
    total = None
    for j in range(M):
        denom = ad.tensor_sum(u_mat[:, j:], axis=1)
        term = ad.log(denom) - ad.log(u_mat[:, j])
        total = term if total is None else total + term
    return ad.tensor_sum(total)


def wd_loss(uncertainties):
    """Sum of squared pooled uncertainty scalars (stability regularizer)."""
    if isinstance(uncertainties, Tensor):
        return ad.tensor_sum(ad.square(uncertainties))
    uncertainties = list(uncertainties)
    if not uncertainties:
        return Tensor(0.0)
    total = ad.tensor_sum(ad.square(_as_tensor(uncertainties[0])))
    for u in uncertainties[1:]:
        total = total + ad.tensor_sum(ad.square(_as_tensor(u)))
    return total

