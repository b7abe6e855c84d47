"""Feature ingestion, snippet windowing, synthetic corpora, and the batch
streams that feed the pair-mixing and temporal-ranking losses.

Synthetic corpora are first-order Markov chains over activity classes with
controllable successor entropy; snippet features are a fixed per-class
embedding plus isotropic Gaussian noise.  The generator keeps the ground-
truth successor table so co-occurrence statistics can be checked exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cooccur import AnnotationCorpus, DataError, Segment, Video, Vocabulary
from .model import AnticipationWindow

__all__ = [
    "FeatureStore", "SyntheticSpec", "SyntheticResult", "TrainSample",
    "FamilySample", "NoiseConfig",
    "window_samples", "generate_synthetic", "pair_batches", "family_batches",
    "pollute", "read_feature_csv", "write_feature_csv",
    "write_annotation_csv", "write_vocab_csv",
]


@dataclass
class FeatureStore:
    features: dict[str, np.ndarray]  # video_id -> (n_snippets, d)
    dim: int
    source: str = "ingested"

    def __post_init__(self):
        for vid, arr in self.features.items():
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise DataError(
                    f"video {vid}: features shaped {arr.shape}, expected (*, {self.dim})")
            if not np.isfinite(arr).all():
                raise DataError(f"video {vid}: non-finite feature values")


@dataclass
class SyntheticSpec:
    num_classes: int = 20
    branching: int = 4
    successor_entropy: float = 1.0
    dim: int = 16
    feature_noise: float = 0.5
    videos: int = 50
    segments_per_video: int = 20
    segment_seconds: float = 1.0
    delta: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.branching < 1 or self.branching >= self.num_classes:
            raise DataError("branching must be in [1, num_classes)")
        if not 0.0 <= self.successor_entropy <= 1.0:
            raise DataError("successor_entropy must be in [0, 1]")
        if self.feature_noise < 0:
            raise DataError("feature_noise must be nonnegative")
        ratio = self.segment_seconds / self.delta
        if abs(ratio - round(ratio)) > 1e-9:
            raise DataError("segment_seconds must be a multiple of delta")


@dataclass
class SyntheticResult:
    corpus: AnnotationCorpus
    store: FeatureStore
    successor_table: dict[int, dict[int, float]]
    vocab: Vocabulary
    class_embeddings: np.ndarray


@dataclass
class TrainSample:
    observed: np.ndarray  # (n_o, d)
    target_class: int
    window: AnticipationWindow
    video_id: str
    segment_index: int


@dataclass
class FamilySample:
    """M windows of one target instance, anticipation horizon shrinking."""

    members: list[TrainSample]
    tau_a_grid: tuple[float, ...]

    @property
    def target_class(self):
        return self.members[0].target_class


@dataclass
class NoiseConfig:
    eta: float
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0:
            raise DataError("eta must be nonnegative")


def _target_snippet(start, delta):
    return int(np.floor(start / delta + 1e-9))


def window_samples(corpus, store, window):
    """One sample per annotated segment with enough preceding footage.

    The observed snippets end exactly tau_a before the target segment starts;
    segments too close to the video start are dropped (the count of drops is
    returned alongside the samples).
    """
    samples = []
    dropped = 0
    n_o, n_a = window.n_o, window.n_a
    for video in corpus.videos:
        if video.video_id not in store.features:
            raise DataError(f"no features for annotated video {video.video_id}")
        feats = store.features[video.video_id]
        for seg_idx, seg in enumerate(video.segments):
            t_idx = _target_snippet(seg.start, window.delta)
            first = t_idx - n_a - n_o
            if first < 0 or t_idx - n_a > feats.shape[0] or t_idx > feats.shape[0]:
                dropped += 1
                continue
            samples.append(TrainSample(
                observed=feats[first:t_idx - n_a].copy(),
                target_class=seg.activity_id,
                window=window,
                video_id=video.video_id,
                segment_index=seg_idx,
            ))
    return samples, dropped


def _successor_distributions(spec, rng):
    """Per class: branching successors, mass interpolated between a single
    primary successor (entropy 0) and uniform over the branch set (entropy 1)."""
    table = {}
    for c in range(spec.num_classes):
        others = [x for x in range(spec.num_classes) if x != c]
        succ = rng.choice(others, size=spec.branching, replace=False)
        probs = np.full(spec.branching, spec.successor_entropy / spec.branching)
        probs[0] += 1.0 - spec.successor_entropy
        table[c] = {int(s): float(p) for s, p in zip(succ, probs) if p > 0}
    return table


def generate_synthetic(spec):
    rng = np.random.default_rng(spec.seed)
    table = _successor_distributions(spec, rng)
    embeddings = rng.normal(size=(spec.num_classes, spec.dim))

    snippets_per_segment = int(round(spec.segment_seconds / spec.delta))
    videos = []
    features = {}
    for v in range(spec.videos):
        vid = f"vid{v:04d}"
        classes = [int(rng.integers(spec.num_classes))]
        for _ in range(spec.segments_per_video - 1):
            succ = table[classes[-1]]
            ids = sorted(succ)
            probs = np.array([succ[i] for i in ids])
            classes.append(int(rng.choice(ids, p=probs / probs.sum())))
        segments = [Segment(k * spec.segment_seconds, (k + 1) * spec.segment_seconds, c)
                    for k, c in enumerate(classes)]
        videos.append(Video(vid, segments))
        snippet_classes = np.repeat(classes, snippets_per_segment)
        noise = rng.normal(size=(snippet_classes.size, spec.dim)) * spec.feature_noise
        features[vid] = embeddings[snippet_classes] + noise

    vocab = Vocabulary(
        verbs={i: f"verb_{i}" for i in range(spec.num_classes)},
        nouns={i: f"noun_{i}" for i in range(spec.num_classes)},
        activities={i: (i, i) for i in range(spec.num_classes)},
    )
    store = FeatureStore(features=features, dim=spec.dim, source="synthetic")
    return SyntheticResult(AnnotationCorpus(videos), store, table, vocab, embeddings)


def pair_batches(samples, batch_size, seed):
    """Shuffled batches of sample pairs with differing target classes.

    Within each batch, samples are greedily matched; unpairable leftovers are
    carried into the next batch.  Yields lists of (sample_i, sample_j).
    """
    if batch_size < 2:
        raise DataError("batch_size must be >= 2")
    classes = {s.target_class for s in samples}
    if len(classes) < 2:
        raise DataError("pairing needs at least two target classes in the corpus")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    carry = []
    for lo in range(0, len(order), batch_size):
        pool = carry + [samples[i] for i in order[lo:lo + batch_size]]
        carry = []
        pairs = []
        used = [False] * len(pool)
        for i, s_i in enumerate(pool):
            if used[i]:
                continue
            for j in range(i + 1, len(pool)):
                if not used[j] and pool[j].target_class != s_i.target_class:
                    pairs.append((s_i, pool[j]))
                    used[i] = used[j] = True
                    break
            if not used[i]:
                carry.append(s_i)
                used[i] = True
        if pairs:
            yield pairs


def family_batches(corpus, store, window, tau_a_grid):
    """Families of windows sharing one target, anticipation horizon shrinking.

    All members start observing at the same snippet (tau_o grows as tau_a
    shrinks), so each member's observation is a prefix-extension of the
    previous one.  Targets without footage at the widest window are skipped.
    """
    grid = tuple(tau_a_grid)
    if len(grid) < 2 or any(b >= a for a, b in zip(grid, grid[1:])):
        raise DataError(f"tau_a grid must be strictly decreasing, got {grid}")
    delta = window.delta
    tau_a_max = grid[0]
    families = []
    skipped = 0
    for video in corpus.videos:
        feats = store.features[video.video_id]
        for seg_idx, seg in enumerate(video.segments):
            t_idx = _target_snippet(seg.start, delta)
            first = t_idx - int(round((window.tau_o + tau_a_max) / delta))
            if first < 0 or t_idx > feats.shape[0]:
                skipped += 1
                continue
            members = []
            for tau_a in grid:
                w = AnticipationWindow(
                    tau_o=window.tau_o + (tau_a_max - tau_a), tau_a=tau_a, delta=delta)
                members.append(TrainSample(
                    observed=feats[first:t_idx - w.n_a].copy(),
                    target_class=seg.activity_id,
                    window=w,
                    video_id=video.video_id,
                    segment_index=seg_idx,
                ))
            families.append(FamilySample(members=members, tau_a_grid=grid))
    return families, skipped


def pollute(store, cfg):
    """Additive Gaussian noise of intensity eta; eta=0 is a bitwise no-op."""
    if cfg.eta == 0:
        return FeatureStore(features={k: v.copy() for k, v in store.features.items()},
                            dim=store.dim, source=store.source)
    rng = np.random.default_rng(cfg.seed)
    noisy = {}
    for vid in sorted(store.features):
        arr = store.features[vid]
        noisy[vid] = arr + cfg.eta * rng.normal(size=arr.shape)
    return FeatureStore(features=noisy, dim=store.dim, source=store.source)


# ---------------------------------------------------------------------------
# file formats

def write_feature_csv(store, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "snippet_idx"] + [f"f{i}" for i in range(store.dim)])
        for vid in sorted(store.features):
            for idx, row in enumerate(store.features[vid]):
                writer.writerow([vid, idx] + [repr(float(x)) for x in row])


def read_feature_csv(path):
    """Plain comma-separated features, as write_feature_csv writes them:
    a `video_id,snippet_idx,f0,...` header, then one unquoted row per snippet.

    The value columns are parsed in one numpy call; any malformed part of the
    file raises DataError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    header = lines[0].split(",")
    if header[:2] != ["video_id", "snippet_idx"] or len(header) < 3:
        raise DataError(f"{path}: bad feature header {header}")
    dim = len(header) - 2
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    rows = {}
    for lineno, line in enumerate(body, start=2):
        if line.count(",") != dim + 1:
            raise DataError(f"{path}:{lineno}: expected {dim + 2} columns")
        vid, idx, _ = line.split(",", 2)
        try:
            rows.setdefault(vid, []).append((int(idx), lineno - 2))
        except ValueError:
            raise DataError(f"{path}:{lineno}: snippet_idx {idx!r} is not an integer") from None
    try:
        values = np.loadtxt(body, delimiter=",", usecols=range(2, dim + 2), comments=None,
                            dtype=np.float64, ndmin=2) if body else np.empty((0, dim))
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric feature value: {exc} "
                        f"(row 0 is line 2)") from None
    features = {}
    for vid, entries in rows.items():
        entries.sort()
        if [i for i, _ in entries] != list(range(len(entries))):
            raise DataError(f"{path}: video {vid} snippet indices not contiguous from 0")
        features[vid] = values[[r for _, r in entries]]
    return FeatureStore(features=features, dim=dim, source="ingested")


def write_annotation_csv(corpus, vocab, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "start_s", "stop_s", "verb_id", "noun_id"])
        for video in corpus.videos:
            for seg in video.segments:
                verb, noun = vocab.activities[seg.activity_id]
                writer.writerow([video.video_id, repr(seg.start), repr(seg.stop),
                                 verb, noun])


def write_vocab_csv(vocab, verb_path, noun_path):
    for path, id_col, mapping in ((verb_path, "verb_id", vocab.verbs),
                                  (noun_path, "noun_id", vocab.nouns)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([id_col, "lemma"])
            for key in sorted(mapping):
                writer.writerow([key, mapping[key]])
