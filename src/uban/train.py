"""SGD training of the anticipation model with the mixed-pair, ranking and
regularization objectives, plus the evaluation forward used by the reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cooccur import DataError, build_internal_matrix
from .data import family_batches, pair_batches, window_samples
from .labels import pair_label, pair_set
from .losses import (adjust_distribution, relative_weights, srul_loss,
                     trul_loss_batched, wd_loss)
from .model import POOLINGS, AnticipationModel, AnticipationWindow, dual_heads

__all__ = ["TrainConfig", "SgdMomentum", "train", "evaluate_model", "NumericalFailure"]

EVAL_BATCH = 256  # windows per evaluation forward


class NumericalFailure(RuntimeError):
    """Non-finite loss during training."""


@dataclass
class TrainConfig:
    alpha: float = 0.4
    beta: float = 0.005
    gamma: float = 5e-6
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-5
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0
    tau_o: float = 1.5
    tau_a: float = 2.0
    delta: float = 0.25
    hidden_dim: int = 64
    pooling: str = "mean"
    tau_a_grid: tuple[float, ...] = (2.0, 1.5, 1.0, 0.5)
    families_per_step: int = 8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise DataError(f"{f.name} must be finite, got {value}")
        if self.delta <= 0:
            raise DataError(f"delta must be positive, got {self.delta}")
        if self.pooling not in POOLINGS:
            raise DataError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        if self.batch_size < 2:
            raise DataError(f"batch_size must be >= 2, got {self.batch_size}")
        for name in ("epochs", "hidden_dim", "families_per_step"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.alpha < 1.0:
            raise DataError(f"alpha must be in [0, 1), got {self.alpha}")
        if min(self.beta, self.gamma, self.momentum, self.weight_decay) < 0:
            raise DataError("beta, gamma, momentum and weight_decay must be nonnegative")
        if self.learning_rate <= 0:
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        try:
            self.window()
        except ValueError as exc:
            raise DataError(str(exc)) from None

    @classmethod
    def desk_profile(cls, **overrides):
        """Small fast profile for synthetic corpora."""
        base = dict(batch_size=32, epochs=10, learning_rate=0.1, hidden_dim=32)
        base.update(overrides)
        return cls(**base)

    def window(self):
        return AnticipationWindow(tau_o=self.tau_o, tau_a=self.tau_a, delta=self.delta)

    @property
    def plain_cross_entropy(self):
        # alpha=beta=gamma=0 is the uncertainty-free ablation baseline
        return self.alpha == 0 and self.beta == 0 and self.gamma == 0


class SgdMomentum:
    """SGD with classical momentum and decoupled L2 weight decay."""

    def __init__(self, params, learning_rate, momentum=0.9, weight_decay=0.0):
        self.params = params
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self):
        for name in sorted(self.params):
            t = self.params[name]
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            if self.weight_decay:
                grad = grad + self.weight_decay * t.data
            v = self.momentum * self.velocity[name] - self.learning_rate * grad
            self.velocity[name] = v
            t.data = t.data + v

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


def _label_cache(matrix_internal, matrix_external):
    """(C, C) support table: the class pairs with a nonzero merged score."""
    scores = matrix_internal.values
    if matrix_external is not None:
        scores = scores + matrix_external.values
    return scores > 0


def _pair_label_rows(pairs, support, alpha):
    """(P, C) soft labels for a (P, 2) array of target class ids."""
    c_i, c_j = pairs[:, 0], pairs[:, 1]
    return pair_label(c_i, c_j, pair_set(support, c_i, c_j), alpha)


def _mixed_log_probs(model, anticipated, heads):
    """Per anticipation step, the adjusted log-probs of each pair's feature mix.

    The batch holds pairs as consecutive rows (2p, 2p+1); each pair's features
    are mixed with weights proportional to the two pooled uncertainties.
    """
    P = anticipated[0].data.shape[0] // 2
    i_idx = list(range(0, 2 * P, 2))
    j_idx = list(range(1, 2 * P, 2))
    log_probs = []
    for feat, (_, u) in zip(anticipated, heads):
        weights = relative_weights(
            ad.concat([ad.gather_rows(u, i_idx), ad.gather_rows(u, j_idx)], axis=1))
        mixed = (ad.gather_rows(feat, i_idx) * weights[:, 0:1]
                 + ad.gather_rows(feat, j_idx) * weights[:, 1:2])
        log_probs.append(adjust_distribution(*dual_heads(mixed, model.head_params,
                                                         model.pooling)))
    return log_probs


def _family_uncertainty(model, observed, members):
    """(F, M) pooled uncertainties, each member at its final anticipation step.

    observed: (F, L, d) longest observation of each family; members: the
    (n_o, n_a) of each member (data.family_batches).  Every member observes
    a prefix of that sequence, so it is encoded once and each member decodes
    from the hidden state after its own last snippet.
    """
    steps = [Tensor(observed[:, t, :]) for t in range(observed.shape[1])]
    states = model.backbone.encode(steps)
    columns = []
    for n_o, n_a in members:
        anticipated = model.backbone.decode(states[n_o - 1], steps[n_o - 1], n_a)
        _, u = dual_heads(anticipated[-1], model.head_params, model.pooling)
        columns.append(u)
    return ad.concat(columns, axis=1)


def train(config, corpus, store, vocab, log_path=None, external_matrix=None):
    """Train on the given corpus; returns (model, log_rows).

    Co-occurrence statistics come from the training corpus only; callers must
    pass the training split, never the full dataset.  The plain objective is
    cross-entropy against one-hot labels at temperature 1, without pairs; the
    boosted one is SRUL on mixed pairs + beta * TRUL + gamma * WD.
    """
    window = config.window()
    observed, targets, _ = window_samples(corpus, store, window)
    if not len(targets):
        raise DataError("no trainable samples: all segments lack footage")
    C = vocab.num_activities
    model = AnticipationModel(store.dim, config.hidden_dim, C,
                              pooling=config.pooling, seed=config.seed)
    optimizer = SgdMomentum(model.params, config.learning_rate,
                            config.momentum, config.weight_decay)
    plain = config.plain_cross_entropy
    if plain:
        onehot = np.eye(C)
    else:
        internal = build_internal_matrix(corpus, vocab)
        support = _label_cache(internal, external_matrix)
        fam_observed, members, _ = family_batches(corpus, store, window,
                                                  config.tau_a_grid)
        F = len(fam_observed)

    log_rows = []
    for epoch in range(config.epochs):
        epoch_seed = config.seed * 100003 + epoch
        if plain:
            order = np.random.default_rng(epoch_seed).permutation(len(targets))
            batches = (order[lo:lo + config.batch_size]
                       for lo in range(0, len(order), config.batch_size))
        else:
            fam_rng = np.random.default_rng(epoch_seed + 1)
            fam_order = fam_rng.permutation(F) if F else []
            fam_pos = 0
            batches = pair_batches(targets, config.batch_size, epoch_seed)
        for batch in batches:
            flat = batch if plain else np.ravel(batch)
            anticipated, heads = model.forward(observed[flat], window.n_a)

            if plain:
                loss = srul_loss([ad.log_softmax(logits, axis=1) for logits, _ in heads],
                                 onehot[targets[flat]])
                logged = {"l_srul": float(loss.data), "l_trul": 0.0, "l_wd": 0.0,
                          "mean_u": 0.0}
            else:
                pair_labels = _pair_label_rows(targets[flat].reshape(-1, 2), support,
                                               config.alpha)
                l_srul = srul_loss(
                    _mixed_log_probs(model, anticipated, heads), pair_labels)
                u_all = [u for _, u in heads]
                l_wd = wd_loss(ad.concat(u_all, axis=1))
                if F and config.beta > 0:
                    take = min(config.families_per_step, F)
                    chosen = [fam_order[(fam_pos + i) % F] for i in range(take)]
                    fam_pos += take
                    u_mat = _family_uncertainty(model, fam_observed[chosen], members)
                    l_trul = trul_loss_batched(u_mat) * Tensor(1.0 / take)
                else:
                    l_trul = Tensor(0.0)
                loss = l_srul + Tensor(config.beta) * l_trul + Tensor(config.gamma) * l_wd
                logged = {"l_srul": float(l_srul.data), "l_trul": float(l_trul.data),
                          "l_wd": float(l_wd.data),
                          "mean_u": float(np.mean([u.data.mean() for u in u_all]))}

            step = len(log_rows)
            if not np.isfinite(loss.data).all():
                raise NumericalFailure(f"non-finite loss at step {step}")
            optimizer.zero_grad()
            ad.backward(loss)
            optimizer.step()
            log_rows.append({"epoch": epoch, "step": step, **logged,
                             "total": float(loss.data)})

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for row in log_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return model, log_rows


def evaluate_model(model, observed, n_a):
    """Adjusted probabilities and pooled uncertainties for every window.

    observed: (N, n_o, d) windows (data.window_samples).
    Returns (probs (N, n_a, C), uncertainties (N, n_a)).
    """
    if not len(observed):
        raise DataError("no evaluable samples")
    probs, uncs = [], []
    for lo in range(0, len(observed), EVAL_BATCH):
        p, u = model.predict(observed[lo:lo + EVAL_BATCH], n_a)
        probs.append(p)
        uncs.append(u)
    return np.concatenate(probs), np.concatenate(uncs)
