import numpy as np
import pytest

from uban.data import FeatureStore
from uban.evaluation import (kendall_tau, class_partition_report,
                             mean_topk_recall, metric_report, noise_sweep,
                             rejection_curve, sample_partition_report,
                             topk_accuracy, uncertainty_histogram,
                             weight_norm_report)


def one_hot_probs(classes, C):
    probs = np.zeros((len(classes), C))
    probs[np.arange(len(classes)), classes] = 1.0
    return probs


def test_topk_perfect_and_chance():
    probs = one_hot_probs([0, 1, 2], 4)
    assert topk_accuracy(probs, [0, 1, 2], 1) == 1.0
    assert topk_accuracy(probs, [3, 3, 3], 1) == 0.0


def test_topk_ties_break_to_ascending_class_id():
    probs = np.full((1, 6), 1 / 6)
    assert topk_accuracy(probs, [2], 3) == 1.0  # uniform: top-3 is {0,1,2}
    assert topk_accuracy(probs, [3], 3) == 0.0


def test_topk_matches_brute_force():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(8), size=50)
    truths = rng.integers(0, 8, size=50)
    for k in (1, 3, 5):
        hits = 0
        for p, t in zip(probs, truths):
            ranked = sorted(range(8), key=lambda c: (-p[c], c))[:k]
            hits += t in ranked
        assert topk_accuracy(probs, truths, k) == pytest.approx(hits / 50)


def test_topk_validation():
    with pytest.raises(ValueError, match="one sample"):
        topk_accuracy(np.zeros((0, 4)), [], 1)
    with pytest.raises(ValueError, match="k"):
        topk_accuracy(np.ones((1, 4)), [0], 0)


def test_mean_recall_two_class_closed_form():
    probs = one_hot_probs([0] * 10 + [0] * 10, 3)
    truths = [0] * 10 + [1] * 10
    mean, per_class = mean_topk_recall(probs, truths, 1, many_shot_threshold=10)
    assert per_class == {0: 1.0, 1: 0.0}
    assert mean == 0.5


def test_mean_recall_threshold_filters_rare_classes():
    probs = one_hot_probs([0] * 10 + [1], 3)
    truths = [0] * 10 + [2]
    mean, per_class = mean_topk_recall(probs, truths, 1, many_shot_threshold=10)
    assert mean == 1.0  # class 2 has a single instance and is excluded
    assert per_class[2] == 0.0
    none_mean, _ = mean_topk_recall(probs, truths, 1, many_shot_threshold=100)
    assert none_mean is None


def test_mean_recall_single_class_equals_its_recall():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(5), size=20)
    truths = np.full(20, 2)
    mean, per_class = mean_topk_recall(probs, truths, 5, many_shot_threshold=10)
    assert mean == per_class[2]


def test_metric_report_fields():
    probs = one_hot_probs([0, 1, 0, 1] * 5, 6)
    truths = [0, 1, 0, 1] * 5
    rep = metric_report(probs, truths)
    assert rep.top1 == rep.top5 == 1.0
    assert rep.sample_count == 20


def test_rejection_zero_fraction_equals_topk():
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(6), size=40)
    truths = rng.integers(0, 6, size=40)
    curve = rejection_curve(probs, truths, rng.random(40), [0.0, 0.2])
    assert curve.accuracies[0] == topk_accuracy(probs, truths, 5)


def test_rejection_anticorrelated_uncertainty_increases():
    C = 8
    truths = np.arange(40) % C
    probs = one_hot_probs(truths, C)
    wrong = np.arange(0, 40, 4)
    probs[wrong] = one_hot_probs((truths[wrong] + 1) % C, C)[:]
    unc = np.where(np.isin(np.arange(40), wrong), 1.0, 0.0)
    curve = rejection_curve(probs, truths, unc, [0.0, 0.1, 0.2, 0.3], k=1)
    assert all(a <= b for a, b in zip(curve.accuracies, curve.accuracies[1:]))
    assert curve.accuracies[-1] == 1.0


def test_rejection_drop_count_and_tie_break():
    probs = one_hot_probs([0, 0, 0, 0], 2)
    truths = [0, 1, 0, 0]
    # equal uncertainties: ties drop the lowest sample index first
    curve = rejection_curve(probs, truths, [1.0, 1.0, 1.0, 1.0], [0.0, 0.3], k=1)
    assert curve.accuracies[1] == pytest.approx(2 / 2)  # ceil(0.3*4)=2 dropped


def test_rejection_validation():
    probs = one_hot_probs([0], 2)
    with pytest.raises(ValueError, match="ascending"):
        rejection_curve(probs, [0], [0.5], [0.3, 0.1])
    with pytest.raises(ValueError, match="lie in"):
        rejection_curve(probs, [0], [0.5], [1.0])


def test_noise_sweep_clean_row_is_bitwise_clean():
    store = FeatureStore(features={"v": np.ones((4, 2))}, dim=2, source="toy")
    seen = []

    def evaluate(s):
        seen.append(s.features["v"].copy())
        return 0.5, 1.0

    rows = noise_sweep(evaluate, store, [0.0, 2.0], seed=3)
    assert rows[0] == (0.0, 0.5, 1.0)
    assert np.array_equal(seen[0], store.features["v"])
    assert not np.array_equal(seen[1], store.features["v"])


def test_histogram_counts_and_degenerate_flag():
    edges, counts, degenerate = uncertainty_histogram([1.0, 2.0, 3.0, 4.0], bins=2)
    assert not degenerate
    assert counts.tolist() == [2, 2]
    assert counts.sum() == 4
    _, counts, degenerate = uncertainty_histogram([5.0, 5.0, 5.0], bins=4)
    assert degenerate
    assert counts.tolist() == [3, 0, 0, 0]
    with pytest.raises(ValueError, match="bins"):
        uncertainty_histogram([1.0], bins=1)


def test_weight_norms_ordered_by_frequency():
    W = np.diag([3.0, 1.0, 2.0, 4.0])
    counts = [10, 40, 20, 1]
    rows, head_mean, tail_mean = weight_norm_report(W, counts)
    assert [r[0] for r in rows] == [1, 2, 0, 3]
    assert head_mean == 1.0  # most frequent quartile: class 1
    assert tail_mean == 4.0  # rarest quartile: class 3


def test_class_partition_covers_all_samples():
    rng = np.random.default_rng(11)
    C = 8
    values = np.zeros((C, C))
    values[0, 1] = values[1, 0] = 5.0
    values[2, 3] = values[3, 2] = 1.0
    probs = rng.dirichlet(np.ones(C), size=60)
    truths = rng.integers(0, C, size=60)
    rep = class_partition_report(values, probs, truths)
    assert sum(rep.sizes) == 60
    assert rep.labels[-1] == "No co-occurrence"
    # classes 4..7 appear in no positive pair
    no_pair = sum(1 for t in truths if t >= 4)
    assert rep.sizes[-1] == no_pair


def test_sample_partition_quartiles_cover():
    rng = np.random.default_rng(13)
    probs = rng.dirichlet(np.ones(5), size=41)
    truths = rng.integers(0, 5, size=41)
    rep = sample_partition_report(probs, truths, rng.random(41))
    assert sum(rep.sizes) == 41
    assert len(rep.labels) == 4


def test_kendall_tau_extremes():
    assert kendall_tau([4.0, 3.0, 2.0, 1.0]) == 1.0
    assert kendall_tau([1.0, 2.0, 3.0, 4.0]) == -1.0
    assert kendall_tau([1.0, 1.0]) == 0.0
    assert kendall_tau([3.0, 1.0, 2.0]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError, match="two values"):
        kendall_tau([1.0])
