import numpy as np
import pytest

from uban import autodiff as ad
from uban.autodiff import NonFiniteLoss, ShapeMismatch, Tensor, backward, grad_check


def test_add_componentwise():
    out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_softmax_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_matmul_identity():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    out = ad.matmul(Tensor(np.eye(3)), Tensor(A))
    assert np.array_equal(out.data, A)


def test_no_grad_records_no_parents():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.full((1, 2), 3.0))
    with_tape = ad.softmax(ad.matmul(x, w) * 2.0)
    with ad.no_grad():
        out = ad.softmax(ad.matmul(x, w) * 2.0)
    assert np.array_equal(out.data, with_tape.data)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert with_tape.requires_grad and with_tape._parents


def test_no_grad_nests_and_restores():
    w = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not (w * w).requires_grad
        assert not (w * w).requires_grad
    assert (w * w).requires_grad


def test_no_grad_restores_after_exception():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ShapeMismatch):
        with ad.no_grad():
            ad.add(w, Tensor(np.ones(3)))
    out = w * w
    assert out.requires_grad and out._parents


def test_matmul_shape_mismatch_names_op():
    with pytest.raises(ShapeMismatch, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_add_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="add"):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(ad.tensor_sum(ad.square(x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_log_softmax_pick():
    z = Tensor([0.3, -1.2, 0.7], requires_grad=True)
    backward(ad.log_softmax(z)[1])
    soft = np.exp(z.data) / np.exp(z.data).sum()
    expected = np.array([0.0, 1.0, 0.0]) - soft
    assert np.allclose(z.grad, expected, atol=1e-12)


def test_backward_mean():
    x = Tensor(np.arange(4.0), requires_grad=True)
    backward(ad.tensor_mean(x))
    assert np.allclose(x.grad, [0.25] * 4)


def test_backward_rejects_nonscalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ad.square(x))


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 5))
    grads = []
    for _ in range(2):
        x = Tensor(data.copy(), requires_grad=True)
        y = ad.tensor_sum(ad.softmax(ad.tanh(ad.matmul(x, Tensor(data.T)))) * Tensor(data @ data.T))
        backward(y)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(scale=30.0, size=(10, 6)))
    out = ad.softmax(x, axis=1)
    assert (out.data >= 0).all()
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_grad_check_quadratic():
    def loss(t):
        return ad.tensor_sum(ad.square(t))

    t = Tensor(np.random.default_rng(0).normal(size=6))
    assert grad_check(loss, [t], step=1e-5) < 1e-7


@pytest.mark.filterwarnings("default:invalid value encountered in log:RuntimeWarning")
def test_grad_check_reports_nonfinite():
    def loss(t):
        return ad.tensor_sum(ad.log(t))

    t = Tensor(np.array([1.0, -1.0]))
    with pytest.raises(NonFiniteLoss):
        grad_check(loss, [t], step=1e-6)


@pytest.mark.parametrize("build", [
    lambda t: ad.tensor_sum(ad.exp(t) * Tensor([0.3, -0.7, 1.1])),
    lambda t: ad.tensor_sum(ad.sigmoid(t)),
    lambda t: ad.tensor_sum(ad.tanh(t) * ad.tanh(t)),
    lambda t: ad.tensor_sum(ad.softplus(t)),
    lambda t: ad.tensor_mean(ad.square(t)),
    lambda t: ad.tensor_sum(ad.log(ad.softmax(t))),
    lambda t: ad.tensor_sum(ad.log_softmax(t) * Tensor([0.2, 0.5, 0.3])),
    lambda t: ad.reduce_max(t) + ad.reduce_min(t),
    lambda t: ad.tensor_sum(ad.concat([t, ad.square(t)])),
    lambda t: ad.tensor_sum(t[1:] * t[:-1]),
])
def test_grad_check_every_op_random_points(build):
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = Tensor(rng.normal(size=3) + 0.1)
        assert grad_check(build, [t], step=1e-6) < 1e-4


def test_grad_check_matmul_and_div():
    rng = np.random.default_rng(5)

    def loss(a, b, s):
        return ad.tensor_sum(ad.div(ad.matmul(a, b), s))

    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 2)))
    s = Tensor(np.array(1.7))
    assert grad_check(loss, [a, b, s], step=1e-6) < 1e-4


def test_gather_rows_accumulates_duplicates():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = ad.gather_rows(x, [0, 0, 2])
    backward(ad.tensor_sum(out))
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_clip_gradient_masks_outside():
    x = Tensor([-5.0, 0.5, 5.0], requires_grad=True)
    backward(ad.tensor_sum(ad.clip(x, 0.0, 1.0)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def _gru_inputs(rng, batch, d_in=3, hidden=4):
    weights = []
    for _ in "zrn":
        weights += [rng.normal(size=(d_in, hidden)), rng.normal(size=(hidden, hidden)),
                    rng.normal(size=(1, hidden))]
    return [Tensor(a) for a in [rng.normal(size=(batch, d_in)),
                                rng.normal(size=(batch, hidden)), *weights]]


@pytest.mark.parametrize("batch", [1, 3])
def test_grad_check_gru_cell(batch):
    rng = np.random.default_rng(12 + batch)
    inputs = _gru_inputs(rng, batch)
    probe = Tensor(rng.normal(size=(batch, 4)))

    def loss(*ts):
        return ad.tensor_sum(ad.gru_cell(*ts) * probe)

    assert grad_check(loss, inputs, step=1e-6) < 1e-7


def test_gru_cell_skips_gradients_of_data_inputs():
    x, h, *weights = _gru_inputs(np.random.default_rng(4), 2)
    for w in weights:
        w.requires_grad = True
    backward(ad.tensor_sum(ad.gru_cell(x, h, *weights)))
    assert x.grad is None and h.grad is None
    assert all(w.grad is not None and w.grad.shape == w.data.shape for w in weights)


def test_gru_cell_shape_mismatch():
    x, h, *weights = _gru_inputs(np.random.default_rng(4), 2)
    with pytest.raises(ShapeMismatch, match="gru_cell"):
        ad.gru_cell(x, Tensor(np.zeros((3, 4))), *weights)
    weights[4] = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch, match="gru_cell"):
        ad.gru_cell(x, h, *weights)


_G = np.random.default_rng(8).normal(size=(3, 7))

# (shape of the tensor, gradient contributions in order, expected grad after each)
ACCUMULATE_CASES = {
    "numpy_scalar": ((), [np.float64(1.5), np.float64(-0.25)], [1.5, 1.25]),
    "read_only_broadcast_view": (
        (3, 4), [np.broadcast_to(np.arange(4.0), (3, 4)), _G[:, :4].copy()],
        [np.broadcast_to(np.arange(4.0), (3, 4)), np.arange(4.0) + _G[:, :4]]),
    "bias_reduction": (
        (1, 7), [_G, -_G[::-1]],
        [_G.sum(axis=0, keepdims=True),
         _G.sum(axis=0, keepdims=True) + (-_G[::-1]).sum(axis=0, keepdims=True)]),
    "concat_column_slice": ((3, 3), [_G[:, 2:5], _G[:, 4:7]],
                            [_G[:, 2:5], _G[:, 2:5] + _G[:, 4:7]]),
    "concat_row_slice": ((2, 7), [_G[1:3], _G[0:2]], [_G[1:3], _G[1:3] + _G[0:2]]),
}


@pytest.mark.parametrize("case", sorted(ACCUMULATE_CASES))
def test_accumulate_sums_into_fresh_grad(case):
    # a grad that aliased a contribution (a view of another node's grad, or a
    # read-only broadcast view) would break any caller that edits .grad in place
    shape, contributions, expected = ACCUMULATE_CASES[case]
    t = Tensor(np.zeros(shape), requires_grad=True)
    for i, (g, want) in enumerate(zip(contributions, expected)):
        ad._accumulate(t, g)
        assert t.grad.shape == shape and t.grad.dtype == np.float64
        assert np.array_equal(t.grad, want)
        # a 0-d sum comes back as a numpy scalar, which nothing can write through
        assert isinstance(t.grad, np.generic) or t.grad.flags.writeable
        assert not any(np.shares_memory(t.grad, c) for c in contributions[:i + 1])
