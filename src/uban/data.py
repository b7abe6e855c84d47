"""Feature ingestion, snippet windowing, synthetic corpora, and the batch
streams that feed the pair-mixing and temporal-ranking losses.

Synthetic corpora are first-order Markov chains over activity classes with
controllable successor entropy; snippet features are a fixed per-class
embedding plus isotropic Gaussian noise.  The generator keeps the ground-
truth successor table so co-occurrence statistics can be checked exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .cooccur import (AnnotationCorpus, DataError, Segment, Video, Vocabulary,
                      _text_errors)
from .model import AnticipationWindow

__all__ = [
    "FeatureStore", "SyntheticSpec", "SyntheticResult", "NoiseConfig",
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
        if self.dim < 1 or self.videos < 1 or self.segments_per_video < 1:
            raise DataError("dim, videos and segments_per_video must be >= 1")
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
class NoiseConfig:
    eta: float
    seed: int = 0

    def __post_init__(self):
        if self.eta < 0:
            raise DataError("eta must be nonnegative")


def _cut_windows(corpus, store, delta, reach, gap):
    """feats[t - reach:t - gap] for each annotated segment whose target starts
    at snippet t; segments without that footage are dropped and counted.

    Returns (observed (N, reach - gap, d), targets (N,), dropped).
    """
    views, targets = [], []
    dropped = 0
    for video in corpus.videos:
        if video.video_id not in store.features:
            raise DataError(f"no features for annotated video {video.video_id}")
        feats = store.features[video.video_id]
        for seg in video.segments:
            t_idx = np.floor(seg.start / delta + 1e-9)
            if not reach <= t_idx <= feats.shape[0]:
                dropped += 1
                continue
            t_idx = int(t_idx)
            views.append(feats[t_idx - reach:t_idx - gap])
            targets.append(seg.activity_id)
    observed = np.stack(views) if views else np.empty((0, reach - gap, store.dim))
    return observed, np.array(targets, dtype=np.int64), dropped


def window_samples(corpus, store, window):
    """One window per annotated segment with enough preceding footage.

    The observed snippets end exactly tau_a before the target segment starts.
    Returns (observed (N, n_o, d), target classes (N,), dropped), where
    dropped counts the segments too close to the video start.
    """
    return _cut_windows(corpus, store, window.delta, window.n_o + window.n_a, window.n_a)


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


def pair_batches(targets, batch_size, seed):
    """Shuffled batches of window pairs with differing target classes.

    Within each batch, windows are greedily matched; unpairable leftovers are
    carried into the next batch.  Yields lists of index pairs (i, j) into
    targets.
    """
    if batch_size < 2:
        raise DataError("batch_size must be >= 2")
    classes = np.asarray(targets).tolist()
    if len(set(classes)) < 2:
        raise DataError("pairing needs at least two target classes in the corpus")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(classes)).tolist()
    carry = []
    for lo in range(0, len(order), batch_size):
        pool = carry + order[lo:lo + batch_size]
        carry = []
        pairs = []
        used = [False] * len(pool)
        for i, s_i in enumerate(pool):
            if used[i]:
                continue
            for j in range(i + 1, len(pool)):
                if not used[j] and classes[pool[j]] != classes[s_i]:
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
    shrinks), so each member's observation is a prefix of the last, longest
    one.  Returns (observed (F, L, d), members, skipped): the longest
    observation of each family, the (n_o, n_a) of every member in grid order,
    shared by all families, and the count of targets without footage at the
    widest window.
    """
    grid = tuple(tau_a_grid)
    if len(grid) < 2 or any(b >= a for a, b in zip(grid, grid[1:])):
        raise DataError(f"tau_a grid must be strictly decreasing, got {grid}")
    reach = int(round((window.tau_o + grid[0]) / window.delta))
    n_as = [AnticipationWindow(tau_o=window.tau_o + (grid[0] - tau_a), tau_a=tau_a,
                               delta=window.delta).n_a for tau_a in grid]
    observed, _, skipped = _cut_windows(corpus, store, window.delta, reach, n_as[-1])
    return observed, [(reach - n_a, n_a) for n_a in n_as], skipped


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
    """The bytes csv.writer writes for a `video_id,snippet_idx,f0,...` header
    and one row per snippet holding each value's float repr: CRLF line ends,
    and only a video id can need quoting.  Rows are joined as strings, since
    a per-value repr and a csv.writer call per row dominate the write time.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["video_id", "snippet_idx",
                           *(f"f{i}" for i in range(store.dim))]) + "\r\n")
        for vid in sorted(store.features):
            buf = io.StringIO()
            csv.writer(buf).writerow([vid, ""])  # "<vid>,\r\n", quoted as needed
            label = buf.getvalue()[:-3]
            rows = np.asarray(store.features[vid], dtype=np.float64).tolist()
            fh.writelines(",".join((label, str(idx), *map(repr, row))) + "\r\n"
                          for idx, row in enumerate(rows))


def read_feature_csv(path):
    """Plain comma-separated features, as write_feature_csv writes them:
    a `video_id,snippet_idx,f0,...` header, then one unquoted row per snippet.

    The value columns are parsed in one numpy call; any malformed part of the
    file raises DataError.  A successful parse leaves a binary copy of the
    result beside the file (`<name>.uban-cache`, keyed by the sha256 of the
    CSV bytes), and a later read of the same bytes loads it instead of
    parsing.  The cache never changes a result or an error: a cache that
    fails any check is ignored and rewritten, and deleting it is always safe.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    cache = os.fsdecode(path) + _CACHE_SUFFIX
    store = _load_feature_cache(cache, digest)
    if store is not None:
        return store
    with _text_errors(path):
        text = raw.decode("utf-8")
    del raw  # one copy of the file at a time, as a text-mode read holds
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    lines = text.split("\n")
    del text
    store = _parse_feature_lines(path, lines)
    _write_feature_cache(cache, digest, store)
    return store


def _parse_feature_lines(path, lines):
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


# Feature cache: magic, u32 version, u32 header length, a sorted-keys JSON
# header, then every video's rows as little-endian float64, in store order.
# The header names the CSV digest, dim, [[video_id, rows], ...], the payload
# digest, and header_sha256, the digest of its other fields, so an edit to a
# video id or a row count cannot pass for a valid cache.
_CACHE_MAGIC = b"UBANFEAT"
_CACHE_VERSION = 1
_CACHE_SUFFIX = ".uban-cache"
_CACHE_PREFIX = struct.Struct("<II")  # version, header length


def _cache_header(csv_sha256, dim, videos, payload_sha256):
    fields = {"csv_sha256": csv_sha256, "dim": dim, "payload_sha256": payload_sha256,
              "videos": videos}
    check = hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()
    return json.dumps(fields | {"header_sha256": check}, sort_keys=True).encode()


def _write_feature_cache(cache, digest, store):
    """Write store's cache atomically; a cache that cannot be written is skipped."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in store.features.values()]
    payload = hashlib.sha256()
    for arr in arrays:
        payload.update(arr)
    header = _cache_header(digest, store.dim,
                           [[vid, len(arr)] for vid, arr in zip(store.features, arrays)],
                           payload.hexdigest())
    directory, name = os.path.split(os.path.abspath(cache))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"{name}.", suffix=".tmp")
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC + _CACHE_PREFIX.pack(_CACHE_VERSION, len(header)) + header)
            for arr in arrays:
                fh.write(arr)
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _load_feature_cache(cache, digest):
    """The FeatureStore cached for CSV bytes of this digest, or None."""
    try:
        with open(cache, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    start = len(_CACHE_MAGIC) + _CACHE_PREFIX.size
    if len(blob) < start or not blob.startswith(_CACHE_MAGIC):
        return None
    version, header_len = _CACHE_PREFIX.unpack_from(blob, len(_CACHE_MAGIC))
    end = start + header_len
    if version != _CACHE_VERSION:
        return None
    try:
        header = json.loads(blob[start:end])
        dim, videos, payload_sha256 = header["dim"], header["videos"], header["payload_sha256"]
        if blob[start:end] != _cache_header(digest, dim, videos, payload_sha256):
            return None
    except (ValueError, TypeError, KeyError, RecursionError):
        return None
    if (type(dim) is not int or dim < 1 or not isinstance(videos, list)
            or not all(type(v) is list and len(v) == 2 and type(v[0]) is str
                       and type(v[1]) is int and v[1] >= 1 for v in videos)
            or len(dict(videos)) != len(videos)
            or len(blob) - end != 8 * dim * sum(n for _, n in videos)
            or hashlib.sha256(memoryview(blob)[end:]).hexdigest() != payload_sha256):
        return None
    features, offset = {}, end
    for vid, n in videos:
        features[vid] = np.frombuffer(blob, "<f8", n * dim, offset).reshape(n, dim).astype(
            np.float64)  # a writeable copy in native byte order
        offset += 8 * n * dim
    try:
        return FeatureStore(features=features, dim=dim, source="ingested")
    except DataError:  # non-finite values
        return None


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
