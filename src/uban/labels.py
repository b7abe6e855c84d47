"""Soft pair labels from a (C, C) boolean co-occurrence support table."""

import numpy as np

__all__ = ["pair_set", "pair_label"]


def pair_set(support, c_i, c_j):
    """(P, C) union of each pair's two support rows, both targets cleared."""
    members, rows = support[c_i] | support[c_j], np.arange(len(c_i))
    members[rows, c_i] = members[rows, c_j] = False
    return members


def pair_label(c_i, c_j, members, alpha):
    """(1-alpha)/2 per target, alpha uniform over the members; 0.5 if none."""
    count, rows = members.sum(axis=1), np.arange(len(c_i))
    probs = members * (alpha / np.maximum(count, 1))[:, None]
    probs[rows, c_i] = probs[rows, c_j] = np.where(count > 0, (1.0 - alpha) / 2.0, 0.5)
    return probs
