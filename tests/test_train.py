import hashlib

import numpy as np
import pytest

from conftest import reachable
from uban import autodiff as ad
from uban.autodiff import Tensor
from uban.data import SyntheticSpec, family_batches, generate_synthetic, window_samples
from uban.model import AnticipationModel, dual_heads
from uban.train import (SgdMomentum, TrainConfig, _family_uncertainty,
                        evaluate_model, train)


@pytest.fixture(scope="module")
def tiny():
    spec = SyntheticSpec(num_classes=6, branching=3, dim=8, videos=6,
                         segments_per_video=8, segment_seconds=4.0,
                         feature_noise=0.5, seed=1)
    return generate_synthetic(spec)


def tiny_config(**overrides):
    base = dict(epochs=2, batch_size=16, hidden_dim=12, seed=1,
                families_per_step=4)
    base.update(overrides)
    return TrainConfig.desk_profile(**base)


def test_config_profiles():
    paper = TrainConfig()
    assert (paper.alpha, paper.beta, paper.gamma) == (0.4, 0.005, 5e-6)
    assert paper.learning_rate == 0.05
    assert paper.epochs == 100
    desk = TrainConfig.desk_profile()
    assert desk.epochs < paper.epochs
    assert not desk.plain_cross_entropy
    baseline = TrainConfig.desk_profile(alpha=0.0, beta=0.0, gamma=0.0)
    assert baseline.plain_cross_entropy


def test_window_from_config():
    win = TrainConfig().window()
    assert win.tau_o == 1.5 and win.tau_a == 2.0 and win.n_a == 8


def test_sgd_momentum_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SgdMomentum({"p": p}, learning_rate=0.1, momentum=0.5)
    p.grad = np.array([2.0])
    opt.step()
    np.testing.assert_allclose(p.data, [0.8])  # v = -0.02... v=-0.2, p=0.8
    p.grad = np.array([0.0])
    opt.step()
    np.testing.assert_allclose(p.data, [0.7])  # momentum carries v=-0.1


def test_sgd_weight_decay_shrinks_parameters():
    p = Tensor(np.array([10.0]), requires_grad=True)
    opt = SgdMomentum({"p": p}, learning_rate=0.1, momentum=0.0, weight_decay=0.1)
    p.grad = np.array([0.0])
    opt.step()
    np.testing.assert_allclose(p.data, [9.9])


def test_training_reduces_loss(tiny):
    cfg = tiny_config(epochs=6)
    model, log_rows = train(cfg, tiny.corpus, tiny.store, tiny.vocab)
    first = np.mean([r["total"] for r in log_rows[:5]])
    last = np.mean([r["total"] for r in log_rows[-5:]])
    assert last < first
    assert all(np.isfinite(r["total"]) for r in log_rows)


def test_training_deterministic(tiny):
    params = []
    for _ in range(2):
        model, _ = train(tiny_config(), tiny.corpus, tiny.store, tiny.vocab)
        params.append({k: t.data.copy() for k, t in model.params.items()})
    assert set(params[0]) == set(params[1])
    for name in params[0]:
        assert np.array_equal(params[0][name], params[1][name]), name


def test_plain_baseline_trains(tiny):
    cfg = tiny_config(alpha=0.0, beta=0.0, gamma=0.0)
    model, log_rows = train(cfg, tiny.corpus, tiny.store, tiny.vocab)
    assert log_rows
    assert all(r["l_trul"] == 0.0 for r in log_rows)


def test_family_uncertainty_matches_per_member_unroll(tiny):
    cfg = tiny_config()
    observed, members, _ = family_batches(tiny.corpus, tiny.store, cfg.window(),
                                          cfg.tau_a_grid)
    model = AnticipationModel(tiny.store.dim, 12, 6, seed=3)
    columns = []
    for n_o, n_a in members:
        out = model.backbone.anticipate(observed[:, :n_o], n_a)
        _, u = dual_heads(out[-1], model.head_params, model.pooling)
        columns.append(u.data[:, 0])
    shared = _family_uncertainty(model, observed, members).data
    assert shared.shape == (len(observed), len(cfg.tau_a_grid))
    assert np.array_equal(shared, np.stack(columns, axis=1))


# Tape nodes of one training step; a GRU step, an affine map, a mean and a
# difference are one node each, so un-fusing any of them or re-encoding each
# family member moves these counts.
TAPE_NODES = {"boosted": 395, "plain": 100}


@pytest.mark.parametrize("objective", sorted(TAPE_NODES))
def test_tape_nodes_per_step_pinned(tiny, objective, monkeypatch):
    overrides = {} if objective == "boosted" else dict(alpha=0.0, beta=0.0, gamma=0.0)
    counts = []
    backward = ad.backward

    def counting(root):
        counts.append(len(ad._topo_order(root)))
        backward(root)

    monkeypatch.setattr(ad, "backward", counting)
    train(tiny_config(epochs=1, **overrides), tiny.corpus, tiny.store, tiny.vocab)
    assert counts and set(counts) == {TAPE_NODES[objective]}


def test_gradients_share_no_memory(tiny, monkeypatch):
    # backward adds later contributions into .grad in place, so a grad
    # aliasing any .data would corrupt it; a grad aliasing another parameter's
    # grad would let an in-place edit of one (clipping, scaling) change the other
    checked = []
    backward = ad.backward

    def checking(root):
        backward(root)
        if not checked:
            nodes = reachable(root)
            params = [t for t in nodes if t.requires_grad and not t._parents]
            assert params and all(p.grad is not None for p in params)
            checked.extend(not np.shares_memory(p.grad, t.data)
                           for p in params for t in nodes)
            checked.extend(not np.shares_memory(p.grad, q.grad)
                           for i, p in enumerate(params) for q in params[i + 1:])

    monkeypatch.setattr(ad, "backward", checking)
    train(tiny_config(epochs=1), tiny.corpus, tiny.store, tiny.vocab)
    assert checked and all(checked)


def test_evaluate_model_shapes(tiny):
    cfg = tiny_config()
    model, _ = train(cfg, tiny.corpus, tiny.store, tiny.vocab)
    win = cfg.window()
    observed, truths, _ = window_samples(tiny.corpus, tiny.store, win)
    probs, uncs = evaluate_model(model, observed, win.n_a)
    n = len(truths)
    assert probs.shape == (n, win.n_a, 6)
    assert uncs.shape == (n, win.n_a)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-9)
    assert (uncs > 0).all()


def test_train_log_written(tiny, tmp_path):
    import json
    path = tmp_path / "log.jsonl"
    train(tiny_config(), tiny.corpus, tiny.store, tiny.vocab, log_path=path)
    rows = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert rows and {"epoch", "step", "total", "mean_u"} <= set(rows[0])


def _param_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode("utf-8"))
        h.update(model.params[name].data.astype("<f8").tobytes())
    return h.hexdigest()


# Exact training trajectories on the tiny corpus; any change to the step's
# arithmetic, batch order or logging moves at least one of these values.
# Recorded with numpy's OpenBLAS build; a BLAS that rounds matmuls
# differently gives other values.
PINNED = {
    "boosted": ("18e5ff51b643cea5c9c331a5f294a3e7e7c7734cd31f40588a8dc9574fac19b2", [
        (0, 0, 1.787822008299894, 3.1796438533714837, 80.5646396760419,
         1.8041230507651316, 0.7932427908162016),
        (0, 1, 1.7903063043346856, 3.1772816358777147, 81.28986840424187,
         1.8065991618560955, 0.7967584974278196),
        (0, 2, 1.7885234843073383, 3.198520679618218, 49.98109466330142,
         1.8047659931787459, 0.7903845651100478),
        (1, 3, 1.7872258835019124, 3.1835709712229683, 71.30631821841527,
         1.8035002699491192, 0.7977797814950796),
        (1, 4, 1.784151979898483, 3.2148208467478177, 90.9858044486636,
         1.8006810131544655, 0.7947362069674888),
        (1, 5, 1.7970997227636252, 3.1842512894599126, 50.1322375458996,
         1.8132716403986542, 0.7915845876878108),
    ]),
    "plain": ("0c2490a9205822f9a50f8dc10d609e2a47139ea69f2f24d1a581bcd7244634ed", [
        (0, 0, 1.7819769967629568, 0.0, 0.0, 1.7819769967629568, 0.0),
        (0, 1, 1.7826078860964252, 0.0, 0.0, 1.7826078860964252, 0.0),
        (0, 2, 1.788052408253441, 0.0, 0.0, 1.788052408253441, 0.0),
        (1, 3, 1.7727415905735473, 0.0, 0.0, 1.7727415905735473, 0.0),
        (1, 4, 1.756651965001159, 0.0, 0.0, 1.756651965001159, 0.0),
        (1, 5, 1.8060947723387448, 0.0, 0.0, 1.8060947723387448, 0.0),
    ]),
}


@pytest.mark.parametrize("objective", sorted(PINNED))
def test_log_rows_pinned(tiny, objective):
    overrides = {} if objective == "boosted" else dict(alpha=0.0, beta=0.0, gamma=0.0)
    cfg = tiny_config(**overrides)
    model, log_rows = train(cfg, tiny.corpus, tiny.store, tiny.vocab)
    digest, rows = PINNED[objective]
    keys = ("epoch", "step", "l_srul", "l_trul", "l_wd", "total", "mean_u")
    assert log_rows == [dict(zip(keys, row)) for row in rows]
    assert _param_digest(model) == digest
    for row in log_rows:
        assert row["total"] == pytest.approx(
            row["l_srul"] + cfg.beta * row["l_trul"] + cfg.gamma * row["l_wd"], rel=1e-12)
