"""Encoder-decoder backbone with parallel classification and uncertainty heads.

The backbone is a GRU-GRU block: the encoder consumes the observed snippet
features, the decoder unrolls one step per anticipation snippet and emits a
future feature at each step.  Two parallel linear heads act on every
anticipated feature: one produces class logits, the other a per-class
uncertainty vector whose pooled scalar serves as a softmax temperature.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cooccur import DataError

__all__ = [
    "AnticipationWindow", "GruBackbone", "AnticipationModel",
    "dual_heads", "mc_dropout_forward",
    "save_checkpoint", "load_checkpoint",
    "U_FLOOR", "U_CEILING", "POOLINGS",
]

U_FLOOR = 0.1
U_CEILING = 10.0
# how dual_heads pools the per-class uncertainty vector into one temperature
_POOL = {"mean": ad.tensor_mean, "max": ad.reduce_max, "min": ad.reduce_min}
POOLINGS = tuple(_POOL)

_CKPT_MAGIC = b"UBANCKPT"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class AnticipationWindow:
    """Timing geometry of one training sample, in seconds and snippets."""

    tau_o: float
    tau_a: float
    delta: float

    def __post_init__(self):
        for name in ("tau_o", "tau_a"):
            ratio = getattr(self, name) / self.delta
            # past 2**53 every float is a whole number, and no array has that many snippets
            if not 1 <= ratio <= 2**53 or abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    f"{name}={getattr(self, name)} is not a positive multiple "
                    f"of delta={self.delta} of at most 2**53 snippets")

    @property
    def n_o(self):
        return int(round(self.tau_o / self.delta))

    @property
    def n_a(self):
        return int(round(self.tau_a / self.delta))

    def anticipation_taus(self):
        """tau_a of each decoder step, largest horizon first."""
        return [(self.n_a - k) * self.delta for k in range(self.n_a)]


def _backbone_shapes(d, h):
    """Name and shape of every backbone parameter, in init order."""
    gru = [(f"{prefix}.{kind}{gate}", shape) for prefix in ("enc", "dec") for gate in "zrn"
           for kind, shape in (("W", (d, h)), ("U", (h, h)), ("b", (1, h)))]
    return gru + [("dec.Wout", (h, d)), ("dec.bout", (1, d))]


def _head_shapes(d, c):
    """Name and shape of every head parameter, in init order."""
    return [("head.Wc", (d, c)), ("head.bc", (1, c)), ("head.Wu", (d, c)), ("head.bu", (1, c))]


def _init_params(rng, shapes):
    """Zero biases (".b*" names); weights uniform in +-1/sqrt(rows), drawn in table order."""
    params = {}
    for name, shape in shapes:
        if name.rpartition(".")[2].startswith("b"):
            data = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            data = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _gru_step(params, prefix, x, h):
    return ad.gru_cell(x, h, *(params[f"{prefix}.{kind}{gate}"]
                               for gate in "zrn" for kind in "WUb"))


class GruBackbone:
    """GRU encoder + GRU decoder emitting one future feature per step."""

    def __init__(self, feature_dim, hidden_dim, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.params = _init_params(rng, _backbone_shapes(feature_dim, hidden_dim))

    def encode(self, steps):
        """Hidden state after each observed snippet; steps: list of (B, d) tensors."""
        h = Tensor(np.zeros((steps[0].data.shape[0], self.hidden_dim)))
        states = []
        for x in steps:
            h = _gru_step(self.params, "enc", x, h)
            states.append(h)
        return states

    def decode(self, h, x, n_a):
        """One anticipated (B, d) feature per step, starting from hidden state h
        and the last observed snippet x; each step feeds its feature back in."""
        anticipated = []
        for _ in range(n_a):
            h = _gru_step(self.params, "dec", x, h)
            x = ad.matmul(h, self.params["dec.Wout"]) + self.params["dec.bout"]
            anticipated.append(x)
        return anticipated

    def anticipate(self, observed, n_a):
        """observed: (B, n_o, d) array or list of (B, d) tensors -> n_a (B, d) features."""
        if isinstance(observed, np.ndarray):
            if observed.ndim != 3 or observed.shape[2] != self.feature_dim:
                raise ad.ShapeMismatch(
                    f"backbone expects (B, n_o, {self.feature_dim}), got {observed.shape}")
            steps = [Tensor(observed[:, t, :]) for t in range(observed.shape[1])]
        else:
            steps = list(observed)
        if not steps:
            raise ad.ShapeMismatch("backbone needs at least one observed snippet")
        states = self.encode(steps)
        return self.decode(states[-1], steps[-1], n_a)


def dual_heads(feature, params, pooling="mean"):
    """Apply both heads to an anticipated feature tensor of shape (B, d).

    Returns (logits (B, C), u (B, 1)).  The per-class uncertainty vector is
    softplus(raw) + U_FLOOR, so it is strictly positive; u is its pooled
    value clamped to [U_FLOOR, U_CEILING], the temperature of the softmax.
    """
    logits = ad.matmul(feature, params["head.Wc"]) + params["head.bc"]
    raw = ad.matmul(feature, params["head.Wu"]) + params["head.bu"]
    vector = ad.softplus(raw) + Tensor(U_FLOOR)
    if pooling not in _POOL:
        raise ValueError(f"unknown pooling {pooling!r}")
    pooled = _POOL[pooling](vector, axis=1, keepdims=True)
    return logits, ad.clip(pooled, U_FLOOR, U_CEILING)


class AnticipationModel:
    """Backbone plus heads, with a flat named-parameter view for the optimizer."""

    def __init__(self, feature_dim, hidden_dim, num_classes, pooling="mean", seed=0):
        rng = np.random.default_rng(seed)
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.num_classes = num_classes
        self.pooling = pooling
        self.backbone = GruBackbone(feature_dim, hidden_dim, rng)
        self.head_params = _init_params(rng, _head_shapes(feature_dim, num_classes))

    @property
    def params(self):
        return {**self.backbone.params, **self.head_params}

    def forward(self, observed, n_a):
        """Run backbone and heads: (anticipated features, (logits, u) per step)."""
        anticipated = self.backbone.anticipate(observed, n_a)
        return anticipated, [dual_heads(f, self.head_params, self.pooling) for f in anticipated]

    def predict(self, observed, n_a):
        """Temperature-adjusted probabilities and pooled uncertainties (numpy).

        Runs without a tape: nothing is recorded for backward.
        """
        with ad.no_grad():
            _, heads = self.forward(observed, n_a)
            probs = [_adjusted_probs(logits, u) for logits, u in heads]
        unc = [u.data[:, 0] for _, u in heads]
        return np.stack(probs, axis=1), np.stack(unc, axis=1)  # (B, n_a, C), (B, n_a)


def _adjusted_probs(logits, u):
    """softmax(logits / u) as numpy: the temperature-adjusted distribution."""
    return ad.softmax(logits / u, axis=1).data


def mc_dropout_forward(model, observed, n_a, passes, drop_rate, seed=0):
    """Repeat the heads with Bernoulli masks on the anticipated features.

    The masks act after the backbone, so one backbone pass serves every
    dropout pass; masks are drawn pass by pass, step by step.  Returns the
    mean adjusted probabilities (B, n_a, C) and a mutual-information style
    model-uncertainty estimate: entropy of the mean distribution minus the
    mean per-pass entropy, averaged over samples and steps.  Memory does not
    grow with the number of passes: only running sums are kept.
    """
    if passes < 2:
        raise ValueError("passes must be >= 2")
    if not 0.0 < drop_rate < 1.0:
        raise ValueError("drop_rate must be in (0, 1)")
    rng = np.random.default_rng(seed)
    keep = 1.0 - drop_rate
    eps = 1e-12
    prob_sum = entropy_sum = 0.0
    with ad.no_grad():
        # x * (1/keep) * draw equals x * (draw / keep) bit for bit, zero signs too
        scaled = [feat.data * (1.0 / keep) for feat in model.backbone.anticipate(observed, n_a)]
        for _ in range(passes):
            probs = []
            for feat in scaled:
                dropped = Tensor(feat * (rng.random(feat.shape) < keep))
                probs.append(_adjusted_probs(
                    *dual_heads(dropped, model.head_params, model.pooling)))
            probs = np.stack(probs, axis=1)  # (B, n_a, C)
            prob_sum += probs
            entropy_sum -= (probs * np.log(probs + eps)).sum(axis=-1)

    mean_probs = prob_sum / passes
    entropy_of_mean = -(mean_probs * np.log(mean_probs + eps)).sum(axis=-1)
    model_uncertainty = float((entropy_of_mean - entropy_sum / passes).mean())
    return {"mean_probs": mean_probs, "model_uncertainty": model_uncertainty}


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, JSON meta, then named float64 blocks

def save_checkpoint(path, model, meta=None):
    meta = dict(meta or {})
    meta.update({
        "feature_dim": model.feature_dim,
        "hidden_dim": model.hidden_dim,
        "num_classes": model.num_classes,
        "pooling": model.pooling,
    })
    params = model.params
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            data = params[name].data
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(data.astype("<f8").tobytes())


def _parameter_shapes(feature_dim, hidden_dim, num_classes):
    """Name -> shape of every AnticipationModel parameter, without building one."""
    return dict(_backbone_shapes(feature_dim, hidden_dim)
                + _head_shapes(feature_dim, num_classes))


def load_checkpoint(path):
    """Returns (model, meta); the parameter round-trip is bit-exact.

    A file that is not a complete checkpoint of a known layout raises DataError.
    The blocks are checked against the layout the meta describes before the
    model is built, so a meta claiming a huge model allocates nothing.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    pos = len(_CKPT_MAGIC)

    def take(n, what):
        nonlocal pos
        if n > len(blob) - pos:
            raise DataError(f"{path}: checkpoint truncated in {what}")
        pos += n
        return blob[pos - n:pos]

    def u32(what):
        return struct.unpack("<I", take(4, what))[0]

    version = u32("version")
    if version != _CKPT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(take(u32("meta"), "meta").decode("utf-8"))
    except (ValueError, RecursionError):  # RecursionError: nesting too deep to parse
        raise DataError(f"{path}: checkpoint meta is not UTF-8 JSON") from None
    if (not isinstance(meta, dict) or meta.get("pooling") not in POOLINGS
            or not all(type(meta.get(k)) is int and meta[k] > 0
                       for k in ("feature_dim", "hidden_dim", "num_classes"))):
        raise DataError(f"{path}: checkpoint meta lacks a valid model layout")
    blocks = {}  # name -> (shape, flat data); reshaped once the shape is known valid
    for _ in range(u32("parameter count")):
        try:
            name = take(u32("parameter name"), "parameter name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: parameter name is not UTF-8") from None
        shape = tuple(struct.unpack("<Q", take(8, name))[0] for _ in range(u32(name)))
        blocks[name] = shape, np.frombuffer(take(8 * math.prod(shape), name), dtype="<f8")

    dims = (meta["feature_dim"], meta["hidden_dim"], meta["num_classes"])
    expected = _parameter_shapes(*dims)
    if set(expected) != set(blocks):
        raise DataError(f"{path}: parameter names {sorted(blocks)} do not match "
                        f"model layout {sorted(expected)}")
    for name, (shape, _) in blocks.items():
        if expected[name] != shape:
            raise DataError(f"{path}: shape mismatch for {name}: checkpoint "
                            f"{shape} vs model {expected[name]}")
    model = AnticipationModel(*dims, pooling=meta["pooling"])
    for name, tensor in model.params.items():
        shape, data = blocks[name]
        tensor.data = data.reshape(shape).copy()
    return model, meta
