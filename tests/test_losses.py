import itertools
import math

import numpy as np
import pytest

from uban import autodiff as ad
from uban.autodiff import Tensor
from uban.losses import (adjust_distribution, anticipation_loss,
                         mix_features, permutation_probability, relative_weights,
                         srul_loss, trul_loss, trul_loss_batched,
                         wd_loss)


def entropy(p):
    p = np.asarray(p)
    return float(-(p * np.log(p)).sum())


def test_unit_temperature_is_plain_softmax():
    adj = adjust_distribution(Tensor([1.0, 0.0]), Tensor(1.0))
    expect = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
    np.testing.assert_allclose(np.exp(adj.data), expect, rtol=1e-12)


def test_large_temperature_approaches_uniform():
    adj = adjust_distribution(Tensor([3.0, -1.0, 0.5]), Tensor(1e6))
    np.testing.assert_allclose(np.exp(adj.data), [1 / 3] * 3, atol=1e-6)


def test_nonpositive_temperature_rejected():
    with pytest.raises(ValueError, match="positive"):
        adjust_distribution(Tensor([1.0, 0.0]), Tensor(0.0))
    with pytest.raises(ValueError, match="positive"):
        adjust_distribution(Tensor([1.0, 0.0]), Tensor(-2.0))


def test_entropy_monotone_in_temperature():
    rng = np.random.default_rng(5)
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    for _ in range(20):
        logits = rng.normal(scale=2.0, size=8)
        ents = [entropy(np.exp(adjust_distribution(Tensor(logits), Tensor(u)).data))
                for u in grid]
        assert all(a < b for a, b in zip(ents, ents[1:]))
        argmaxes = {int(np.argmax(
            adjust_distribution(Tensor(logits), Tensor(u)).data))
            for u in grid}
        assert len(argmaxes) == 1


def test_uniform_label_cross_entropy_is_log_c():
    adj = adjust_distribution(Tensor([0.0, 0.0, 0.0, 0.0]), Tensor(1.0))
    loss = anticipation_loss(adj, np.full(4, 0.25))
    assert float(loss.data) == pytest.approx(math.log(4), rel=1e-12)


def test_one_hot_label_cross_entropy():
    logits = np.array([2.0, -1.0, 0.5])
    adj = adjust_distribution(Tensor(logits), Tensor(1.0))
    loss = anticipation_loss(adj, np.array([1.0, 0.0, 0.0]))
    expect = -np.log(np.exp(2.0) / np.exp(logits).sum())
    assert float(loss.data) == pytest.approx(expect, rel=1e-12)


def test_unnormalized_label_rejected():
    adj = adjust_distribution(Tensor([0.0, 0.0]), Tensor(1.0))
    with pytest.raises(ValueError, match="sum to 1"):
        anticipation_loss(adj, np.array([0.5, 0.3]))


def test_batched_cross_entropy_averages_rows():
    logits = np.array([[1.0, 0.0], [0.0, 2.0]])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    adj = adjust_distribution(Tensor(logits), Tensor([[1.0], [1.0]]))
    got = float(anticipation_loss(adj, labels).data)
    per_row = [
        float(anticipation_loss(
            adjust_distribution(Tensor(logits[i]), Tensor(1.0)), labels[i]).data)
        for i in range(2)
    ]
    assert got == pytest.approx(np.mean(per_row), rel=1e-12)


def test_relative_weights_closed_form():
    w = relative_weights(Tensor([2.0, 3.0]))
    np.testing.assert_allclose(w.data, [0.4, 0.6], rtol=1e-12)


def test_relative_weights_scale_invariant_and_row_normalized():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.1, 5.0, size=(4, 3))
    w1 = relative_weights(Tensor(u)).data
    w2 = relative_weights(Tensor(10.0 * u)).data
    np.testing.assert_allclose(w1, w2, rtol=1e-12)
    np.testing.assert_allclose(w1.sum(axis=1), 1.0, rtol=1e-12)


def test_relative_weights_nonpositive_rejected():
    with pytest.raises(ValueError, match="positive"):
        relative_weights(Tensor([1.0, 0.0]))


def test_mix_features_weighted_sum():
    f1, f2 = Tensor([1.0, 0.0]), Tensor([0.0, 1.0])
    mixed = mix_features([f1, f2], [Tensor(0.4), Tensor(0.6)])
    np.testing.assert_allclose(mixed.data, [0.4, 0.6], rtol=1e-12)


def test_mix_features_count_mismatch_rejected():
    with pytest.raises(ValueError, match="weights"):
        mix_features([Tensor([1.0])], [Tensor(0.5), Tensor(0.5)])


def test_srul_matches_manual_cross_entropy():
    rng = np.random.default_rng(7)
    steps, pairs, C = 3, 4, 5
    lps = [ad.log_softmax(Tensor(rng.normal(size=(pairs, C))), axis=1)
           for _ in range(steps)]
    labels = rng.dirichlet(np.ones(C), size=pairs)
    got = float(srul_loss(lps, labels).data)
    manual = np.mean([
        -np.mean((lp.data * labels).sum(axis=1)) for lp in lps
    ])
    assert got == pytest.approx(manual, rel=1e-12)


# ---------------------------------------------------------------------------
# ranking losses

def test_descending_triple_closed_form():
    p = permutation_probability(Tensor([3.0, 2.0, 1.0]), [0, 1, 2])
    # (3/6) * (2/3) * (1/1) = 1/3
    assert float(p.data) == pytest.approx(1 / 3, rel=1e-12)
    loss, skipped = trul_loss([Tensor([3.0, 2.0, 1.0])])
    assert float(loss.data) == pytest.approx(-math.log(1 / 3), rel=1e-12)
    assert skipped == 0


def test_pair_closed_form():
    p = permutation_probability(Tensor([2.0, 1.0]), [0, 1])
    assert float(p.data) == pytest.approx(2 / 3, rel=1e-12)


def test_permutation_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for M in range(2, 7):
        u = Tensor(rng.uniform(0.1, 5.0, size=M))
        total = sum(float(permutation_probability(u, list(perm)).data)
                    for perm in itertools.permutations(range(M)))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_invalid_order_rejected():
    with pytest.raises(ValueError, match="permutation"):
        permutation_probability(Tensor([1.0, 2.0]), [0, 0])


def test_nonpositive_uncertainty_rejected():
    with pytest.raises(ValueError, match="positive"):
        permutation_probability(Tensor([1.0, -1.0]), [0, 1])
    with pytest.raises(ValueError, match="positive"):
        trul_loss_batched(Tensor([[1.0, 0.0]]))


def test_descending_assignment_is_optimal():
    rng = np.random.default_rng(13)
    for M in range(2, 6):
        values = sorted(rng.uniform(0.2, 4.0, size=M), reverse=True)
        losses = {}
        for perm in itertools.permutations(values):
            loss, _ = trul_loss([Tensor(list(perm))])
            losses[perm] = float(loss.data)
        best = min(losses, key=losses.get)
        assert list(best) == values


def test_short_families_skipped():
    loss, skipped = trul_loss([Tensor([2.0]), Tensor([2.0, 1.0])])
    assert skipped == 1
    assert float(loss.data) == pytest.approx(-math.log(2 / 3), rel=1e-12)


def test_batched_trul_equals_sum_of_families():
    rng = np.random.default_rng(17)
    u = rng.uniform(0.1, 3.0, size=(5, 4))
    summed, _ = trul_loss([Tensor(row) for row in u])
    batched = trul_loss_batched(Tensor(u))
    assert float(batched.data) == pytest.approx(float(summed.data), rel=1e-12)


def test_wd_is_sum_of_squares():
    assert float(wd_loss(Tensor([1.0, 2.0, 3.0])).data) == pytest.approx(14.0)
    assert float(wd_loss([Tensor(2.0), Tensor([1.0, 1.0])]).data) == pytest.approx(6.0)
    assert float(wd_loss([]).data) == 0.0


# ---------------------------------------------------------------------------
# gradients

def test_adjusted_cross_entropy_gradient():
    rng = np.random.default_rng(19)
    logits = Tensor(rng.normal(size=6), requires_grad=True)
    u = Tensor(1.7, requires_grad=True)
    label = rng.dirichlet(np.ones(6))

    def loss_fn(*_):
        return anticipation_loss(adjust_distribution(logits, u), label)

    err = ad.grad_check(loss_fn, [logits, u], step=1e-6)
    assert err < 1e-4


def test_trul_gradient():
    rng = np.random.default_rng(23)
    u = Tensor(rng.uniform(0.5, 3.0, size=4), requires_grad=True)

    def loss_fn(*_):
        loss, _ = trul_loss([u])
        return loss

    assert ad.grad_check(loss_fn, [u], step=1e-6) < 1e-4


def test_mixing_gradient_flows_to_uncertainties():
    rng = np.random.default_rng(29)
    u = Tensor(rng.uniform(0.5, 2.0, size=2), requires_grad=True)
    f1 = Tensor(rng.normal(size=3), requires_grad=True)
    f2 = Tensor(rng.normal(size=3), requires_grad=True)
    label = rng.dirichlet(np.ones(3))

    def loss_fn(*_):
        w = relative_weights(u)
        mixed = mix_features([f1, f2], [w[0], w[1]])
        return anticipation_loss(adjust_distribution(mixed, Tensor(1.3)), label)

    assert ad.grad_check(loss_fn, [u, f1, f2], step=1e-6) < 1e-4
