import csv
import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import edit_bytes
from uban.cooccur import (AnnotationCorpus, DataError, Segment, Video,
                          build_internal_matrix)
from uban.data import (FeatureStore, NoiseConfig, SyntheticSpec, family_batches,
                       generate_synthetic, pair_batches, pollute,
                       read_feature_csv, window_samples, write_feature_csv)
from uban.model import AnticipationWindow

WIN = AnticipationWindow(tau_o=1.5, tau_a=1.0, delta=0.25)


def toy_store(vid="v0", snippets=40, dim=3):
    rng = np.random.default_rng(0)
    return FeatureStore(features={vid: rng.normal(size=(snippets, dim))},
                        dim=dim, source="toy")


def toy_corpus(starts, vid="v0", seconds=1.0):
    segs = [Segment(s, s + seconds, i % 3) for i, s in enumerate(starts)]
    return AnnotationCorpus([Video(vid, segs)])


def test_window_geometry_ends_tau_a_before_target():
    store = toy_store()
    corpus = toy_corpus([4.0])
    observed, targets, dropped = window_samples(corpus, store, WIN)
    assert dropped == 0
    assert observed.shape == (1, WIN.n_o, 3)
    assert targets.tolist() == [0]
    # target starts at snippet 16; observed covers snippets 6..11
    np.testing.assert_array_equal(observed[0], store.features["v0"][6:12])


def test_early_segment_dropped():
    observed, targets, dropped = window_samples(toy_corpus([0.5]), toy_store(), WIN)
    assert observed.shape == (0, WIN.n_o, 3)
    assert targets.shape == (0,)
    assert dropped == 1


def test_segment_past_representable_snippets_dropped():
    # 1e308 s is finite, but its snippet index overflows to infinity
    corpus = AnnotationCorpus([Video("v0", [Segment(4.0, 5.0, 0),
                                             Segment(1e308, 1.5e308, 1)])])
    observed, targets, dropped = window_samples(corpus, toy_store(), WIN)
    assert len(observed) == len(targets) == 1 and dropped == 1


def test_missing_video_rejected():
    with pytest.raises(DataError, match="v1"):
        window_samples(toy_corpus([4.0], vid="v1"), toy_store("v0"), WIN)


def test_full_footage_yields_one_sample_per_segment():
    spec = SyntheticSpec(num_classes=6, videos=4, segments_per_video=10,
                         segment_seconds=4.0, seed=3)
    syn = generate_synthetic(spec)
    observed, targets, dropped = window_samples(syn.corpus, syn.store, WIN)
    # only the first segment of each video lacks preceding footage
    assert dropped == 4
    assert len(observed) == len(targets) == 4 * 10 - 4


# ---------------------------------------------------------------------------
# synthetic generator

def test_spec_validation():
    with pytest.raises(DataError, match="branching"):
        SyntheticSpec(num_classes=4, branching=4)
    with pytest.raises(DataError, match="entropy"):
        SyntheticSpec(successor_entropy=1.5)
    with pytest.raises(DataError, match="multiple"):
        SyntheticSpec(segment_seconds=0.3, delta=0.25)


def test_zero_entropy_chains_are_deterministic():
    spec = SyntheticSpec(num_classes=8, successor_entropy=0.0, videos=6,
                         segments_per_video=12, seed=5)
    syn = generate_synthetic(spec)
    for c, dist in syn.successor_table.items():
        assert len(dist) == 1
    matrix = build_internal_matrix(syn.corpus, syn.vocab)
    assert not matrix.values.any()


def test_internal_support_matches_successor_table():
    spec = SyntheticSpec(num_classes=6, branching=3, videos=20,
                         segments_per_video=20, seed=7)
    syn = generate_synthetic(spec)
    matrix = build_internal_matrix(syn.corpus, syn.vocab)
    for a in range(6):
        for b in range(6):
            if matrix.values[a, b] > 0:
                shared = any(a in dist and b in dist
                             for dist in syn.successor_table.values())
                assert shared


def test_uniform_entropy_successors_chi_squared():
    from scipy import stats
    spec = SyntheticSpec(num_classes=10, branching=4, successor_entropy=1.0,
                         videos=50, segments_per_video=100, seed=11)
    syn = generate_synthetic(spec)
    counts = {c: {s: 0 for s in dist} for c, dist in syn.successor_table.items()}
    for video in syn.corpus.videos:
        classes = [seg.activity_id for seg in video.segments]
        for a, b in zip(classes, classes[1:]):
            counts[a][b] += 1
    pooled = [v for c in counts.values() for v in c.values()]
    assert sum(pooled) >= 4900
    worst = 1.0
    for c, obs in counts.items():
        values = list(obs.values())
        if sum(values) < 40:
            continue
        _, p = stats.chisquare(values)
        worst = min(worst, p)
    assert worst > 1e-4


def test_same_seed_bitwise_identical():
    spec = SyntheticSpec(num_classes=5, videos=3, segments_per_video=8, seed=13)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for vid in a.store.features:
        assert np.array_equal(a.store.features[vid], b.store.features[vid])
    assert a.successor_table == b.successor_table
    for va, vb in zip(a.corpus.videos, b.corpus.videos):
        assert [s.activity_id for s in va.segments] == [s.activity_id for s in vb.segments]


def test_features_center_on_class_embeddings():
    spec = SyntheticSpec(num_classes=4, branching=3, videos=30, segments_per_video=10,
                         feature_noise=0.2, segment_seconds=1.0, seed=17)
    syn = generate_synthetic(spec)
    sums = np.zeros((4, spec.dim))
    counts = np.zeros(4)
    for video in syn.corpus.videos:
        feats = syn.store.features[video.video_id]
        per_seg = int(round(spec.segment_seconds / spec.delta))
        for i, seg in enumerate(video.segments):
            sums[seg.activity_id] += feats[i * per_seg:(i + 1) * per_seg].sum(axis=0)
            counts[seg.activity_id] += per_seg
    means = sums / counts[:, None]
    assert np.abs(means - syn.class_embeddings).max() < 0.05


# ---------------------------------------------------------------------------
# batch streams

def test_pair_stream_all_pairs_distinct_classes():
    spec = SyntheticSpec(num_classes=6, videos=10, segments_per_video=20,
                         segment_seconds=4.0, seed=19)
    syn = generate_synthetic(spec)
    _, targets, _ = window_samples(syn.corpus, syn.store, WIN)
    emitted = 0
    for pairs in pair_batches(targets, 16, seed=0):
        for i, j in pairs:
            assert targets[i] != targets[j]
            emitted += 1
    assert emitted >= len(targets) // 2 - 8


def test_pair_stream_deterministic():
    spec = SyntheticSpec(num_classes=6, videos=5, segments_per_video=10,
                         segment_seconds=4.0, seed=23)
    syn = generate_synthetic(spec)
    _, targets, _ = window_samples(syn.corpus, syn.store, WIN)

    def keys():
        return list(pair_batches(targets, 8, seed=4))

    assert keys() == keys()


def test_single_class_corpus_rejected():
    store = toy_store(snippets=100)
    segs = [Segment(4.0 + i, 5.0 + i, 2) for i in range(5)]
    corpus = AnnotationCorpus([Video("v0", segs)])
    _, targets, _ = window_samples(corpus, store, WIN)
    with pytest.raises(DataError, match="two target classes"):
        list(pair_batches(targets, 4, seed=0))


def test_family_members_share_start_and_target():
    spec = SyntheticSpec(num_classes=6, videos=4, segments_per_video=10,
                         segment_seconds=4.0, seed=29)
    syn = generate_synthetic(spec)
    grid = (2.0, 1.5, 1.0, 0.5)
    observed, members, skipped = family_batches(syn.corpus, syn.store, WIN, grid)
    assert len(observed) and skipped == 4
    assert [n_a for _, n_a in members] == [round(tau_a / WIN.delta) for tau_a in grid]
    # every member starts at the same snippet and ends at the target, so each
    # one extends the previous observation window up to the stored longest one
    reach = members[0][0] + members[0][1]
    assert all(n_o + n_a == reach for n_o, n_a in members)
    assert [n_o for n_o, _ in members] == sorted(n_o for n_o, _ in members)
    assert observed.shape[1] == members[-1][0]


def _per_segment_windows(corpus, store, window):
    """The per-segment slicing loop that window_samples replaced: one copy
    per window, kept as the oracle."""
    samples, dropped = [], 0
    n_o, n_a = window.n_o, window.n_a
    for video in corpus.videos:
        feats = store.features[video.video_id]
        for seg in video.segments:
            t_idx = int(np.floor(seg.start / window.delta + 1e-9))
            first = t_idx - n_a - n_o
            if first < 0 or t_idx - n_a > feats.shape[0] or t_idx > feats.shape[0]:
                dropped += 1
                continue
            samples.append((feats[first:t_idx - n_a].copy(), seg.activity_id))
    return samples, dropped


def _per_segment_families(corpus, store, window, grid):
    """The per-segment slicing loop that family_batches replaced: each family
    holds one (observed, n_a) per member, a copy each."""
    families, skipped = [], 0
    delta = window.delta
    for video in corpus.videos:
        feats = store.features[video.video_id]
        for seg in video.segments:
            t_idx = int(np.floor(seg.start / delta + 1e-9))
            first = t_idx - int(round((window.tau_o + grid[0]) / delta))
            if first < 0 or t_idx > feats.shape[0]:
                skipped += 1
                continue
            members = []
            for tau_a in grid:
                w = AnticipationWindow(tau_o=window.tau_o + (grid[0] - tau_a),
                                       tau_a=tau_a, delta=delta)
                members.append((feats[first:t_idx - w.n_a].copy(), w.n_a))
            families.append(members)
    return families, skipped


def _oracle_corpora():
    spec = SyntheticSpec(num_classes=6, videos=4, segments_per_video=10,
                         segment_seconds=4.0, seed=3)
    syn = generate_synthetic(spec)
    # irregular starts: before any footage, off the snippet grid, past the end
    starts = [0.5, 2.6, 4.0, 5.3, 7.3, 9.75, 9.9, 10.5]
    toy = AnnotationCorpus([Video("v0", [Segment(s, s + 0.5, i % 3)
                                         for i, s in enumerate(starts)])])
    return {"synthetic": (syn.corpus, syn.store), "toy": (toy, toy_store())}


@pytest.mark.parametrize("name", ["synthetic", "toy"])
def test_window_arrays_match_per_segment_oracle(name):
    corpus, store = _oracle_corpora()[name]
    samples, dropped = _per_segment_windows(corpus, store, WIN)
    observed, targets, got_dropped = window_samples(corpus, store, WIN)
    assert samples and got_dropped == dropped
    assert np.array_equal(observed, np.stack([o for o, _ in samples]))
    assert np.array_equal(targets, [c for _, c in samples])


@pytest.mark.parametrize("name", ["synthetic", "toy"])
def test_family_arrays_match_per_segment_oracle(name):
    corpus, store = _oracle_corpora()[name]
    grid = (2.0, 1.5, 1.0, 0.5)
    families, skipped = _per_segment_families(corpus, store, WIN, grid)
    observed, members, got_skipped = family_batches(corpus, store, WIN, grid)
    assert families and got_skipped == skipped
    assert len(members) == len(grid)
    for m, (n_o, n_a) in enumerate(members):
        assert all(fam[m][1] == n_a for fam in families)
        assert np.array_equal(observed[:, :n_o], np.stack([fam[m][0] for fam in families]))
    assert observed.shape[1] == members[-1][0]


def test_family_grid_must_decrease():
    spec = SyntheticSpec(num_classes=6, videos=2, segments_per_video=6,
                         segment_seconds=4.0, seed=31)
    syn = generate_synthetic(spec)
    with pytest.raises(DataError, match="decreasing"):
        family_batches(syn.corpus, syn.store, WIN, (1.0, 1.5))


# ---------------------------------------------------------------------------
# pollution and CSV round-trip

def test_pollute_zero_eta_is_bitwise_copy():
    store = toy_store()
    clean = pollute(store, NoiseConfig(eta=0.0, seed=9))
    assert clean.features["v0"] is not store.features["v0"]
    assert np.array_equal(clean.features["v0"], store.features["v0"])


def test_pollute_noise_variance_scales_with_eta():
    rng = np.random.default_rng(0)
    store = FeatureStore(features={"v0": rng.normal(size=(2000, 8))}, dim=8,
                         source="toy")
    for eta in (1.0, 5.0):
        noisy = pollute(store, NoiseConfig(eta=eta, seed=1))
        delta = noisy.features["v0"] - store.features["v0"]
        assert abs(delta.std() - eta) / eta < 0.05
    with pytest.raises(DataError, match="eta"):
        NoiseConfig(eta=-1.0)


def test_feature_csv_round_trip(tmp_path):
    store = toy_store(snippets=7, dim=4)
    path = tmp_path / "features.csv"
    write_feature_csv(store, path)
    loaded = read_feature_csv(path)
    assert np.array_equal(loaded.features["v0"], store.features["v0"])


def _write_feature_csv_oracle(store, path):
    """The per-value csv.writer writer that write_feature_csv must match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "snippet_idx"] + [f"f{i}" for i in range(store.dim)])
        for vid in sorted(store.features):
            for idx, row in enumerate(store.features[vid]):
                writer.writerow([vid, idx] + [repr(float(x)) for x in row])


EDGE_VALUES = [-0.0, 1e-05, 1e16, 5e-324, -1.5e300]


@pytest.mark.parametrize("dim", [1, 64])
def test_feature_csv_bytes_match_csv_writer(tmp_path, dim):
    rng = np.random.default_rng(dim)
    edge = np.resize(EDGE_VALUES, (len(EDGE_VALUES), dim))
    store = FeatureStore(features={"v1": rng.normal(size=(3, dim)),
                                   "v0": np.vstack([edge, rng.normal(size=(4, dim))])},
                         dim=dim, source="toy")
    fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
    write_feature_csv(store, fast)
    _write_feature_csv_oracle(store, oracle)
    assert fast.read_bytes() == oracle.read_bytes()
    loaded = read_feature_csv(fast)
    assert sorted(loaded.features) == ["v0", "v1"]
    for vid, arr in store.features.items():
        assert np.array_equal(loaded.features[vid], arr)
        assert np.array_equal(np.signbit(loaded.features[vid]), np.signbit(arr))


def test_feature_csv_quotes_video_ids_like_csv_writer(tmp_path):
    store = FeatureStore(features={'a"b,c': np.ones((2, 2)), "": np.zeros((1, 2)),
                                   "line\nbreak": np.full((1, 2), 0.5)}, dim=2)
    fast, oracle = tmp_path / "fast.csv", tmp_path / "oracle.csv"
    write_feature_csv(store, fast)
    _write_feature_csv_oracle(store, oracle)
    assert fast.read_bytes() == oracle.read_bytes()


def test_feature_csv_rows_in_any_order(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("video_id,snippet_idx,f0,f1\n"
                    "b,1,1.5,-2\nA,0,3e-3,4\nb,0,0.25,7\n", encoding="utf-8")
    store = read_feature_csv(path)
    assert list(store.features) == ["b", "A"] and store.dim == 2
    assert np.array_equal(store.features["b"], [[0.25, 7.0], [1.5, -2.0]])
    assert np.array_equal(store.features["A"], [[3e-3, 4.0]])
    path.write_text("video_id,snippet_idx,f0\n", encoding="utf-8")
    assert read_feature_csv(path).features == {}


FEATURE_CSV_DEFECTS = {
    "header": (b"video,snippet_idx,f0\nv,0,1.0\n", "bad feature header"),
    "no_feature_columns": (b"video_id,snippet_idx\nv,0\n", "bad feature header"),
    "empty": (b"", "bad feature header"),
    "short_row": (b"video_id,snippet_idx,f0,f1\nv,0,1,2\nv,1,3\n",
                  "features.csv:3: expected 4 columns"),
    "blank_line": (b"video_id,snippet_idx,f0\nv,0,1\n\nv,1,2\n",
                   "features.csv:3: expected 3 columns"),
    "gap": (b"video_id,snippet_idx,f0\nv,0,1\nv,2,2\n", "not contiguous"),
    "duplicate": (b"video_id,snippet_idx,f0\nv,0,1\nv,0,2\n", "not contiguous"),
    "non_finite": (b"video_id,snippet_idx,f0\nv,0,1\nv,1,inf\n", "non-finite"),
    "non_numeric": (b"video_id,snippet_idx,f0\nv,0,1\nv,1,abc\n", "non-numeric"),
    "non_integer_index": (b"video_id,snippet_idx,f0\nv,0,1\nv,1.5,2\n",
                          "features.csv:3: snippet_idx '1.5' is not an integer"),
    "not_utf8": (b"video_id,snippet_idx,f0\nv\xff,0,1\n", "not UTF-8"),
}


@pytest.mark.parametrize("defect", sorted(FEATURE_CSV_DEFECTS))
def test_feature_csv_defects_are_data_errors(tmp_path, defect):
    blob, message = FEATURE_CSV_DEFECTS[defect]
    path = tmp_path / "features.csv"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=message):
        read_feature_csv(path)
    assert list(tmp_path.iterdir()) == [path]  # a file that fails to parse gets no cache


def _read_feature_bytes(blob):
    """read_feature_csv on a file holding blob: a FeatureStore or a DataError."""
    with tempfile.TemporaryDirectory() as tmp:  # also removes the cache a good read leaves
        path = os.path.join(tmp, "features.csv")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            store = read_feature_csv(path)
        except DataError:
            return None
        assert isinstance(store, FeatureStore)
        return store


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_read_feature_csv_fuzz_bytes(blob):
    _read_feature_bytes(b"video_id,snippet_idx,f0\n" + blob)
    _read_feature_bytes(blob)


VALID_FEATURES = (b"video_id,snippet_idx,f0,f1\r\n"
                  b"v0,0,0.5,-1.25\r\nv0,1,2.0,3e-05\r\nv1,0,1.0,4.0\r\n")
MUTATION_BYTES = [b",", b"\n", b"\r", b'"', b"#", b"\x00", b"\xff", b" ", b"-",
                  b"e", b"9", b".", b"x", b"nan", b"\xc3\xa9"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                          st.integers(0, len(VALID_FEATURES) - 1),
                          st.sampled_from(MUTATION_BYTES)), min_size=1, max_size=4))
def test_read_feature_csv_fuzz_mutations(edits):
    store = _read_feature_bytes(edit_bytes(VALID_FEATURES, edits))
    if store is not None:
        assert all(np.isfinite(a).all() and a.shape[1] == store.dim
                   for a in store.features.values())


# ---------------------------------------------------------------------------
# the binary cache read_feature_csv leaves beside a feature CSV

def _cache(path):
    return Path(f"{path}.uban-cache")


def _assert_same_store(got, want):
    assert list(got.features) == list(want.features)
    assert (got.dim, got.source) == (want.dim, want.source)
    for vid, arr in want.features.items():
        assert got.features[vid].dtype == np.float64 and got.features[vid].flags.writeable
        assert np.array_equal(got.features[vid], arr)
        assert np.array_equal(np.signbit(got.features[vid]), np.signbit(arr))


def _forbid_parse(monkeypatch):
    def loadtxt(*args, **kwargs):
        raise AssertionError("a cache hit parsed the CSV")
    monkeypatch.setattr(np, "loadtxt", loadtxt)


def _write_unsorted_features(path):
    """Videos out of sorted order, rows out of snippet order, edge values."""
    rows = ["video_id,snippet_idx,f0,f1", "b,1,1.5,-0.0", "A,0,5e-324,-1.5e300",
            "b,0,0.25,1e16", "b,2,1e-05,7"]
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")


def test_feature_cache_hit_matches_the_parse(tmp_path, monkeypatch):
    path = tmp_path / "features.csv"
    _write_unsorted_features(path)
    parsed = read_feature_csv(path)
    assert list(parsed.features) == ["b", "A"] and _cache(path).is_file()
    _forbid_parse(monkeypatch)
    _assert_same_store(read_feature_csv(path), parsed)


def _sha256(blob):
    return hashlib.sha256(blob).hexdigest()


def _forge_cache(csv_bytes, dim, videos, payload, version=1):
    """Cache bytes in the documented format, from any fields."""
    fields = {"csv_sha256": _sha256(csv_bytes), "dim": dim,
              "payload_sha256": _sha256(payload), "videos": videos}
    fields["header_sha256"] = _sha256(json.dumps(fields, sort_keys=True).encode())
    header = json.dumps(fields, sort_keys=True).encode()
    return b"UBANFEAT" + struct.pack("<II", version, len(header)) + header + payload


def test_feature_cache_format(tmp_path):
    path = tmp_path / "features.csv"
    _write_unsorted_features(path)
    store = read_feature_csv(path)
    payload = np.concatenate([store.features["b"], store.features["A"]]).astype("<f8")
    assert _cache(path).read_bytes() == _forge_cache(
        path.read_bytes(), 2, [["b", 3], ["A", 1]], payload.tobytes())


# (CSV bytes, payload, valid cache) -> a cache read_feature_csv must not use: edits
# of the valid cache, then forgeries whose digests match but whose fields no
# parse gives
BAD_CACHES = {
    "renamed_video": lambda csv, p, valid: valid.replace(b'["b", 3]', b'["c", 3]'),
    "swapped_rows": lambda csv, p, valid: valid.replace(b'[["b", 3], ["A", 1]]',
                                                        b'[["b", 1], ["A", 3]]'),
    "payload_bit": lambda csv, p, valid: valid[:-1] + bytes([valid[-1] ^ 1]),
    "truncated": lambda csv, p, valid: valid[:-8],
    "other_csv": lambda csv, p, valid: _forge_cache(csv + b"\n", 2, [["b", 3], ["A", 1]], p),
    "version": lambda csv, p, valid: _forge_cache(csv, 2, [["b", 3], ["A", 1]], p, version=2),
    "rows_past_payload": lambda csv, p, valid: _forge_cache(csv, 2, [["b", 4], ["A", 1]], p),
    "zero_rows": lambda csv, p, valid: _forge_cache(csv, 2, [["b", 3], ["A", 1], ["C", 0]], p),
    "repeated_video": lambda csv, p, valid: _forge_cache(csv, 2, [["b", 3], ["b", 1]], p),
    "float_dim": lambda csv, p, valid: _forge_cache(csv, 2.0, [["b", 3], ["A", 1]], p),
    "non_finite": lambda csv, p, valid: _forge_cache(csv, 2, [["b", 3], ["A", 1]],
                                                     np.full(8, np.nan).tobytes()),
}


@pytest.mark.parametrize("damage", sorted(BAD_CACHES))
def test_bad_cache_is_a_miss(tmp_path, damage):
    path = tmp_path / "features.csv"
    _write_unsorted_features(path)
    store = read_feature_csv(path)
    valid = _cache(path).read_bytes()
    payload = np.concatenate(list(store.features.values())).tobytes()
    _cache(path).write_bytes(BAD_CACHES[damage](path.read_bytes(), payload, valid))
    _assert_same_store(read_feature_csv(path), store)
    assert _cache(path).read_bytes() == valid


def test_edited_csv_is_reparsed_and_its_cache_rewritten(tmp_path, monkeypatch):
    path = tmp_path / "features.csv"
    _write_unsorted_features(path)
    read_feature_csv(path)
    stale = _cache(path).read_bytes()
    path.write_bytes(path.read_bytes().replace(b"b,2,1e-05,7", b"b,2,1e-05,8"))
    edited = read_feature_csv(path)
    assert edited.features["b"][2, 1] == 8.0
    assert _cache(path).read_bytes() != stale
    _forbid_parse(monkeypatch)  # the rewritten cache serves the next read
    _assert_same_store(read_feature_csv(path), edited)


def test_damaged_csv_ignores_an_old_cache(tmp_path):
    path = tmp_path / "features.csv"
    _write_unsorted_features(path)
    read_feature_csv(path)
    path.write_bytes(path.read_bytes().replace(b"b,2,1e-05,7", b"b,3,1e-05,7"))
    with pytest.raises(DataError, match="video b snippet indices not contiguous"):
        read_feature_csv(path)


def test_unwritable_cache_path_is_skipped(tmp_path):
    # a directory blocks the cache even for root; pytest turns any warning into an error
    path = tmp_path / "features.csv"
    _write_unsorted_features(path)
    _cache(path).mkdir()
    first, second = read_feature_csv(path), read_feature_csv(path)
    _assert_same_store(second, first)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv",
                                                          "features.csv.uban-cache"]
    assert _cache(path).is_dir() and not any(_cache(path).iterdir())


@pytest.fixture(scope="module")
def valid_cache(tmp_path_factory):
    """VALID_FEATURES, its parse and the cache that parse leaves."""
    path = tmp_path_factory.mktemp("cache") / "features.csv"
    path.write_bytes(VALID_FEATURES)
    store = read_feature_csv(path)
    return store, _cache(path).read_bytes()


CACHE_MUTATION_BYTES = MUTATION_BYTES + [b"0", b"1", b"[", b"]", b"{", b"}", b"\\"]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=200).map(lambda blob: (blob, [])),
    st.binary(max_size=200).map(lambda blob: (b"UBANFEAT\x01\x00\x00\x00" + blob, [])),
    st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                       st.integers(0, 2**16), st.sampled_from(CACHE_MUTATION_BYTES)),
             min_size=1, max_size=4).map(lambda edits: (None, edits))))
def test_feature_cache_fuzz(valid_cache, case):
    """Any cache bytes: the read equals the parse, and leaves a valid cache."""
    store, valid = valid_cache
    blob, edits = case
    if blob is None:  # up to four edits of the valid cache, anywhere in it
        blob = edit_bytes(valid, [(kind, pos % (len(valid) + 1), piece)
                                  for kind, pos, piece in edits])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        path.write_bytes(VALID_FEATURES)
        _cache(path).write_bytes(blob)
        _assert_same_store(read_feature_csv(path), store)
        assert _cache(path).read_bytes() == valid
