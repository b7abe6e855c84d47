import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import CooccurrenceSet, merge_rows, pair_label, pair_set, single_label
from uban.cooccur import UncertaintyMatrix, build_internal_matrix
from uban.data import SyntheticSpec, generate_synthetic
from uban.train import _label_cache, _pair_label_rows


def co_set(target, members):
    return CooccurrenceSet(targets=(target,), scores={m: 1.0 for m in members})


def test_target_with_four_neighbours():
    label = single_label(0, co_set(0, {1, 2, 3, 4}), alpha=0.4, num_classes=6)
    assert label.probs[0] == pytest.approx(0.6)
    assert np.allclose(label.probs[1:5], 0.1)
    assert label.probs[5] == 0.0


def test_empty_set_degenerates_to_one_hot():
    label = single_label(2, co_set(2, set()), alpha=0.4, num_classes=4)
    assert label.probs.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_alpha_zero_is_one_hot_regardless_of_set():
    label = single_label(1, co_set(1, {0, 2}), alpha=0.0, num_classes=3)
    assert label.probs[1] == 1.0
    assert label.probs.sum() == 1.0


def test_target_excluded_from_its_own_set():
    label = single_label(0, co_set(0, {0, 1}), alpha=0.4, num_classes=3)
    assert label.probs[0] == pytest.approx(0.6)
    assert label.probs[1] == pytest.approx(0.4)


def test_pair_halves_between_targets():
    merged = CooccurrenceSet(targets=(0, 1), scores={2: 1.0, 3: 2.0})
    label = pair_label(0, 1, merged, alpha=0.4, num_classes=5)
    assert label.probs[0] == label.probs[1] == pytest.approx(0.3)
    assert label.probs[2] == label.probs[3] == pytest.approx(0.2)


def test_pair_empty_set_is_two_hot():
    merged = CooccurrenceSet(targets=(0, 3), scores={})
    label = pair_label(0, 3, merged, alpha=0.4, num_classes=4)
    assert label.probs[0] == label.probs[3] == 0.5


def test_pair_identical_targets_rejected():
    with pytest.raises(ValueError, match="differ"):
        pair_label(2, 2, CooccurrenceSet(targets=(2, 2), scores={}), 0.4, 4)


def test_bad_alpha_rejected():
    for alpha in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            single_label(0, co_set(0, {1}), alpha, 3)


def test_out_of_range_class_rejected():
    with pytest.raises(ValueError, match="out of range"):
        single_label(7, co_set(7, set()), 0.4, num_classes=5)


def test_pair_set_union_sums_scores():
    a = CooccurrenceSet(targets=(0,), scores={2: 1.0, 3: 2.0})
    b = CooccurrenceSet(targets=(1,), scores={3: 4.0, 4: 5.0})
    merged = pair_set(a, b, 0, 1)
    assert merged.members == {2, 3, 4}
    assert merged.scores == {2: 1.0, 3: 6.0, 4: 5.0}


def test_pair_set_strips_targets():
    a = CooccurrenceSet(targets=(0,), scores={1: 3.0, 2: 1.0})
    b = CooccurrenceSet(targets=(1,), scores={0: 2.0})
    merged = pair_set(a, b, 0, 1)
    assert merged.members == {2}


def test_pair_set_symmetric():
    a = CooccurrenceSet(targets=(0,), scores={2: 1.0})
    b = CooccurrenceSet(targets=(1,), scores={3: 1.0})
    assert pair_set(a, b, 0, 1).scores == pair_set(b, a, 0, 1).scores


@given(
    num_classes=st.integers(3, 12),
    alpha=st.floats(0.0, 0.99),
    seed=st.integers(0, 10_000),
)
def test_single_label_properties(num_classes, alpha, seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(num_classes))
    members = set(int(x) for x in rng.choice(num_classes, rng.integers(0, num_classes),
                                             replace=False))
    label = single_label(c, co_set(c, members), alpha, num_classes)
    assert label.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (label.probs >= 0).all()
    if alpha < 0.5:
        assert int(np.argmax(label.probs)) == c
    effective = members - {c}
    if alpha == 0.0 or not effective:
        assert label.probs[c] == 1.0


@given(
    num_classes=st.integers(3, 12),
    alpha=st.floats(0.0, 0.99),
    seed=st.integers(0, 10_000),
)
def test_pair_label_properties(num_classes, alpha, seed):
    rng = np.random.default_rng(seed)
    c_i, c_j = (int(x) for x in rng.choice(num_classes, 2, replace=False))
    members = set(int(x) for x in rng.choice(num_classes, rng.integers(0, num_classes),
                                             replace=False))
    merged = CooccurrenceSet(targets=(c_i, c_j),
                             scores={m: 1.0 for m in members})
    label = pair_label(c_i, c_j, merged, alpha, num_classes)
    swapped = pair_label(c_j, c_i, merged, alpha, num_classes)
    assert label.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert label.probs[c_i] == label.probs[c_j]
    assert np.array_equal(label.probs, swapped.probs)
    assert label.sparse() == {k: v for k, v in enumerate(label.probs) if v > 0}


# ---------------------------------------------------------------------------
# the support-table path of uban.labels against the per-class oracle

def _oracle_rows(internal, external, pairs, alpha):
    C = len(internal)
    sets = [merge_rows(internal[c], external[c], c) for c in range(C)]
    return np.stack([pair_label(i, j, pair_set(sets[i], sets[j], i, j), alpha, C).probs
                     for i, j in pairs])


def _assert_rows_match_oracle(internal, external):
    C = internal.values.shape[0]
    pairs = [(i, j) for i in range(C) for j in range(C) if i != j]
    support = _label_cache(internal, external)
    ext = np.zeros_like(internal.values) if external is None else external.values
    for alpha in (0.4, 0.25, 0.0):
        got = _pair_label_rows(np.array(pairs), support, alpha)
        want = _oracle_rows(internal.values, ext, pairs, alpha)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"alpha={alpha}"


@pytest.mark.parametrize("entropy", [1.0, 0.3, 0.0])
@pytest.mark.parametrize("seed", range(4))
def test_pair_label_rows_match_oracle_on_every_ordered_pair(seed, entropy):
    synth = generate_synthetic(SyntheticSpec(successor_entropy=entropy, seed=seed))
    _assert_rows_match_oracle(build_internal_matrix(synth.corpus, synth.vocab), None)


def test_pair_label_rows_match_oracle_with_external_matrix():
    synth = generate_synthetic(SyntheticSpec(successor_entropy=0.0, seed=0))
    internal = build_internal_matrix(synth.corpus, synth.vocab)
    rng = np.random.default_rng(5)
    upper = np.triu(rng.integers(0, 3, size=internal.values.shape) * (rng.random(
        internal.values.shape) < 0.2), k=1)
    external = UncertaintyMatrix("external-activity", upper + upper.T)
    # the external scores must add members the internal statistics lack
    assert ((external.values > 0) & (internal.values == 0)).any()
    _assert_rows_match_oracle(internal, external)
