import tracemalloc

import numpy as np
import pytest

from oracles import matmul, sigmoid, tanh
from uban import autodiff as ad
from uban.autodiff import Tensor
from uban.model import (U_CEILING, U_FLOOR, AnticipationModel, AnticipationWindow,
                        GruBackbone, _gru_step, _head_shapes, _init_params,
                        _parameter_shapes, dual_heads, load_checkpoint,
                        mc_dropout_forward, save_checkpoint)


def test_window_snippet_counts():
    win = AnticipationWindow(tau_o=1.5, tau_a=1.0, delta=0.25)
    assert win.n_o == 6
    assert win.n_a == 4


def test_window_taus_shrink_toward_target():
    win = AnticipationWindow(tau_o=1.0, tau_a=2.0, delta=0.25)
    taus = win.anticipation_taus()
    assert taus[0] == pytest.approx(2.0)
    assert taus[-1] == pytest.approx(0.25)
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_window_rejects_non_multiples():
    with pytest.raises(ValueError, match="tau_a"):
        AnticipationWindow(tau_o=1.0, tau_a=0.3, delta=0.25)
    with pytest.raises(ValueError, match="tau_o"):
        AnticipationWindow(tau_o=0.1, tau_a=1.0, delta=0.25)


def test_backbone_emits_one_feature_per_step():
    backbone = GruBackbone(feature_dim=5, hidden_dim=7)
    out = backbone.anticipate(np.zeros((3, 4, 5)), n_a=6)
    assert len(out) == 6
    assert all(f.data.shape == (3, 5) for f in out)


def test_backbone_rejects_wrong_feature_dim():
    backbone = GruBackbone(feature_dim=5, hidden_dim=7)
    with pytest.raises(ad.ShapeMismatch, match="backbone expects"):
        backbone.anticipate(np.zeros((3, 4, 6)), n_a=2)
    with pytest.raises(ad.ShapeMismatch, match="observed"):
        backbone.anticipate([], n_a=2)


def test_zero_weights_fixed_point():
    # with all parameters zeroed the decoder emits zero features forever
    backbone = GruBackbone(feature_dim=4, hidden_dim=3)
    for t in backbone.params.values():
        t.data = np.zeros_like(t.data)
    out = backbone.anticipate(np.zeros((2, 3, 4)), n_a=5)
    for f in out:
        assert not f.data.any()


def test_backbone_same_seed_bitwise_identical():
    obs = np.random.default_rng(1).normal(size=(2, 6, 4))
    outs = []
    for _ in range(2):
        backbone = GruBackbone(4, 8, rng=np.random.default_rng(3))
        out = backbone.anticipate(obs, n_a=3)
        outs.append(np.stack([f.data for f in out]))
    assert np.array_equal(outs[0], outs[1])


def _composite_gru_step(params, prefix, x, h):
    """The GRU step as a graph of elementary ops: the reference for the fused cell."""
    z = sigmoid(matmul(x, params[f"{prefix}.Wz"])
                + matmul(h, params[f"{prefix}.Uz"]) + params[f"{prefix}.bz"])
    r = sigmoid(matmul(x, params[f"{prefix}.Wr"])
                + matmul(h, params[f"{prefix}.Ur"]) + params[f"{prefix}.br"])
    n = tanh(matmul(x, params[f"{prefix}.Wn"])
             + matmul(r * h, params[f"{prefix}.Un"]) + params[f"{prefix}.bn"])
    one = Tensor(1.0)
    return (one - z) * n + z * h


@pytest.mark.parametrize("prefix", ["enc", "dec"])
def test_fused_gru_step_matches_composite(prefix):
    rng = np.random.default_rng(8)
    backbone = GruBackbone(5, 7, rng=rng)
    cell = [backbone.params[f"{prefix}.{kind}{gate}"] for gate in "zrn" for kind in "WUb"]
    for t in cell:
        t.data = rng.normal(scale=0.5, size=t.data.shape)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    h = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    probe = Tensor(rng.normal(size=(3, 7)))
    inputs = [x, h, *cell]
    outs, grads = [], []
    for step in (_gru_step, _composite_gru_step):
        for t in inputs:
            t.grad = None
        out = step(backbone.params, prefix, x, h)
        ad.backward(ad.tensor_sum(out * probe))
        outs.append(out.data)
        grads.append([t.grad for t in inputs])
    assert np.array_equal(outs[0], outs[1])
    for fused, composite in zip(*grads):
        np.testing.assert_allclose(fused, composite, rtol=1e-12,
                                   atol=1e-12 * np.abs(composite).max())


def test_uncertainty_vector_positive_and_scalar_clamped():
    rng = np.random.default_rng(2)
    params = _init_params(rng, _head_shapes(6, 9))
    feat = Tensor(rng.normal(scale=50.0, size=(4, 6)))
    for pooling in ("mean", "max", "min"):
        _, u = dual_heads(feat, params, pooling)
        s = u.data
        assert s.shape == (4, 1)
        assert (s >= U_FLOOR).all() and (s <= U_CEILING).all()


def test_pooling_modes_ordered():
    rng = np.random.default_rng(4)
    params = _init_params(rng, _head_shapes(6, 9))
    feat = Tensor(rng.normal(size=(3, 6)))
    lo = dual_heads(feat, params, "min")[1].data
    mid = dual_heads(feat, params, "mean")[1].data
    hi = dual_heads(feat, params, "max")[1].data
    assert (lo <= mid).all() and (mid <= hi).all()


def test_unknown_pooling_rejected():
    params = _init_params(np.random.default_rng(0), _head_shapes(3, 4))
    with pytest.raises(ValueError, match="pooling"):
        dual_heads(Tensor(np.zeros((1, 3))), params, "median")


def test_predict_shapes_and_row_sums():
    model = AnticipationModel(feature_dim=5, hidden_dim=6, num_classes=8, seed=1)
    obs = np.random.default_rng(0).normal(size=(3, 4, 5))
    probs, unc = model.predict(obs, n_a=4)
    assert probs.shape == (3, 4, 8)
    assert unc.shape == (3, 4)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-10)
    assert (unc >= U_FLOOR).all()


def test_predict_matches_the_recorded_forward():
    model = AnticipationModel(feature_dim=5, hidden_dim=6, num_classes=8, seed=1)
    obs = np.random.default_rng(0).normal(size=(3, 4, 5))
    probs, unc = model.predict(obs, n_a=4)
    _, heads = model.forward(obs, n_a=4)
    assert heads[0][0].requires_grad
    for k, (logits, u) in enumerate(heads):
        adjusted = ad.softmax(logits / u, axis=1)
        assert np.array_equal(probs[:, k], adjusted.data)
        assert np.array_equal(unc[:, k], u.data[:, 0])


def test_gradient_through_backbone_and_heads():
    model = AnticipationModel(feature_dim=3, hidden_dim=4, num_classes=5, seed=7)
    obs = np.random.default_rng(5).normal(size=(2, 3, 3))
    label = np.random.default_rng(6).dirichlet(np.ones(5), size=2)
    wrt = [model.params[k] for k in ("enc.Wz", "dec.Un", "head.Wu", "head.Wc")]

    def loss_fn(*_):
        _, heads = model.forward(obs, n_a=2)
        logits, u = heads[-1]
        lp = ad.log_softmax(logits / u, axis=1)
        return ad.neg(ad.tensor_mean(ad.tensor_sum(lp * Tensor(label), axis=1)))

    err = ad.grad_check(loss_fn, list(model.params.values()), step=1e-6, wrt=wrt)
    assert err < 1e-4


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = AnticipationModel(feature_dim=4, hidden_dim=5, num_classes=6,
                              pooling="max", seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, meta={"note": "fixture"})
    loaded, meta = load_checkpoint(path)
    assert meta["note"] == "fixture"
    assert meta["pooling"] == "max"
    for name, tensor in model.params.items():
        assert np.array_equal(tensor.data, loaded.params[name].data)
    save_checkpoint(tmp_path / "again.ckpt", loaded, meta={"note": "fixture"})
    assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()


@pytest.mark.parametrize("dims", [(5, 7, 3), (1, 2, 9)])
def test_parameter_shapes_match_the_model(dims):
    model = AnticipationModel(*dims)
    assert _parameter_shapes(*dims) == {k: t.data.shape for k, t in model.params.items()}


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_mc_dropout_deterministic_and_validated():
    model = AnticipationModel(feature_dim=4, hidden_dim=5, num_classes=6, seed=3)
    obs = np.random.default_rng(9).normal(size=(2, 4, 4))
    a = mc_dropout_forward(model, obs, n_a=3, passes=5, drop_rate=0.3, seed=21)
    b = mc_dropout_forward(model, obs, n_a=3, passes=5, drop_rate=0.3, seed=21)
    assert np.array_equal(a["mean_probs"], b["mean_probs"])
    assert a["model_uncertainty"] == b["model_uncertainty"]
    assert a["model_uncertainty"] >= -1e-9
    with pytest.raises(ValueError, match="passes"):
        mc_dropout_forward(model, obs, n_a=3, passes=1, drop_rate=0.3)
    with pytest.raises(ValueError, match="drop_rate"):
        mc_dropout_forward(model, obs, n_a=3, passes=4, drop_rate=0.0)


def test_mc_dropout_small_rate_matches_plain_forward():
    model = AnticipationModel(feature_dim=4, hidden_dim=5, num_classes=6, seed=3)
    obs = np.random.default_rng(9).normal(size=(2, 4, 4))
    plain, _ = model.predict(obs, n_a=3)
    out = mc_dropout_forward(model, obs, n_a=3, passes=10, drop_rate=1e-9, seed=0)
    np.testing.assert_allclose(out["mean_probs"], plain, atol=1e-6)
    assert out["model_uncertainty"] == pytest.approx(0.0, abs=1e-6)


def test_mc_dropout_memory_does_not_grow_with_passes():
    model = AnticipationModel(feature_dim=8, hidden_dim=6, num_classes=10, seed=1)
    obs = np.random.default_rng(0).normal(size=(64, 3, 8))

    def peak(passes):
        tracemalloc.start()
        try:
            mc_dropout_forward(model, obs, n_a=4, passes=passes, drop_rate=0.3, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(2), peak(32)
    assert abs(many - few) <= 0.1 * few, (few, many)


def _mc_dropout_per_pass(model, observed, n_a, passes, drop_rate, seed):
    """The original MC-dropout loop: a recorded backbone pass per dropout pass,
    every pass's probabilities stacked, then reduced over the pass axis."""
    rng = np.random.default_rng(seed)
    keep = 1.0 - drop_rate
    all_probs = []
    for _ in range(passes):
        out = model.backbone.anticipate(observed, n_a)
        step_probs = []
        for feat in out:
            mask = (rng.random(feat.data.shape) < keep) / keep
            logits, u = dual_heads(feat * Tensor(mask), model.head_params, model.pooling)
            step_probs.append(ad.softmax(logits / u, axis=1).data)
        all_probs.append(np.stack(step_probs, axis=1))
    all_probs = np.stack(all_probs, axis=0)  # (passes, B, n_a, C)
    mean_probs = all_probs.mean(axis=0)
    eps = 1e-12
    entropy_of_mean = -(mean_probs * np.log(mean_probs + eps)).sum(axis=-1)
    mean_of_entropy = -(all_probs * np.log(all_probs + eps)).sum(axis=-1).mean(axis=0)
    return mean_probs, float((entropy_of_mean - mean_of_entropy).mean())


@pytest.mark.parametrize("pooling", ["mean", "max"])
def test_mc_dropout_matches_per_pass_oracle(pooling):
    model = AnticipationModel(feature_dim=6, hidden_dim=5, num_classes=9,
                              pooling=pooling, seed=4)
    obs = np.random.default_rng(2).normal(size=(11, 3, 6))
    out = mc_dropout_forward(model, obs, n_a=4, passes=7, drop_rate=0.25, seed=5)
    mean_probs, model_uncertainty = _mc_dropout_per_pass(
        model, obs, n_a=4, passes=7, drop_rate=0.25, seed=5)
    assert np.array_equal(out["mean_probs"], mean_probs)
    assert out["model_uncertainty"] == model_uncertainty
