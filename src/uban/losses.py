"""Training objectives: temperature-adjusted cross-entropy, relative-
uncertainty mixing weights, listwise ranking of uncertainties over shrinking
anticipation horizons, and the squared-uncertainty regularizer.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _as_tensor

__all__ = [
    "adjust_distribution", "soft_cross_entropy", "relative_weights",
    "srul_loss", "trul_loss_batched", "wd_loss",
]


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


def relative_weights(u):
    """Normalize positive uncertainties to sum to 1 (scale invariant).

    u: (M,) tensor, or (B, M) for per-row normalization.
    """
    u = _as_tensor(u)
    if not (u.data > 0).all():
        raise ValueError(f"uncertainties must be positive, got min {u.data.min()}")
    axis = u.data.ndim - 1
    return u / ad.tensor_sum(u, axis=axis, keepdims=True)


def srul_loss(mixed_log_probs_by_step, pair_labels):
    """Sample-wise relative uncertainty loss over one batch of pairs.

    mixed_log_probs_by_step: per anticipation step, the (P, C) log-probability
    tensor of the mixed pair distributions.  pair_labels: (P, C) soft labels.
    Cross-entropy is averaged over pairs and over steps.
    """
    labels = Tensor(np.asarray(pair_labels, dtype=np.float64))
    per_step = [soft_cross_entropy(lp, labels) for lp in mixed_log_probs_by_step]
    return sum(per_step[1:], per_step[0]) * Tensor(1.0 / len(per_step))


def trul_loss_batched(u_mat):
    """Vectorized identity-ranking loss for a (F, M) uncertainty tensor.

    Equals the sum of the per-family Plackett-Luce losses of the reference
    trul_loss in tests/oracles.py.
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
    """Sum of squared pooled uncertainties (stability regularizer).

    uncertainties: one tensor of every pooled scalar, e.g. the (B, n_a)
    concat of the per-step (B, 1) uncertainties.
    """
    return ad.tensor_sum(ad.square(uncertainties))

