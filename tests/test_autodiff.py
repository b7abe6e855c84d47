import numpy as np
import pytest

from oracles import exp, matmul, sigmoid, tanh
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
    out = matmul(Tensor(np.eye(3)), Tensor(A))
    assert np.array_equal(out.data, A)


def test_no_grad_records_no_parents():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.full((1, 2), 3.0))
    with_tape = ad.softmax(matmul(x, w) * 2.0)
    with ad.no_grad():
        out = ad.softmax(matmul(x, w) * 2.0)
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
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("x_shape,W_shape,b_shape", [((2, 3), (2, 4), (1, 4)),
                                                     ((2, 3), (3, 4), (1, 5)),
                                                     ((2, 3), (3, 4), (3, 2, 4))])
def test_linear_shape_mismatch_names_op(x_shape, W_shape, b_shape):
    with pytest.raises(ShapeMismatch, match="linear"):
        ad.linear(*(Tensor(np.zeros(s)) for s in (x_shape, W_shape, b_shape)))


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
        y = ad.tensor_sum(ad.softmax(tanh(matmul(x, Tensor(data.T)))) * Tensor(data @ data.T))
        backward(y)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(scale=30.0, size=(10, 6)))
    out = ad.softmax(x, axis=1)
    assert (out.data >= 0).all()
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_softplus_within_two_ulp_of_logaddexp():
    x = np.random.default_rng(23).uniform(-50.0, 50.0, size=100_000)
    np.testing.assert_allclose(ad.softplus(Tensor(x)).data, np.logaddexp(0.0, x),
                               rtol=2**-50, atol=0)


SOFTPLUS_SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 36.0, 37.0, 40.0, -40.0, 700.0, -700.0,
                    -745.0, -746.0, 1e308, -1e308, np.inf, -np.inf]


def test_softplus_exact_at_special_values():
    x = np.array(SOFTPLUS_SPECIAL)
    out = ad.softplus(Tensor(x)).data
    assert out.tobytes() == np.logaddexp(0.0, x).tobytes()


def test_softplus_of_nan_is_nan_without_warning():
    # warnings are errors here, so a RuntimeWarning fails the test
    assert np.isnan(ad.softplus(Tensor([np.nan, 1.0])).data[0])


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
    lambda t: ad.tensor_sum(exp(t) * Tensor([0.3, -0.7, 1.1])),
    lambda t: ad.tensor_sum(sigmoid(t)),
    lambda t: ad.tensor_sum(tanh(t) * tanh(t)),
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
        return ad.tensor_sum(ad.div(matmul(a, b), s))

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


@pytest.mark.parametrize("leaf", ["transposed", "read_only"])
def test_grad_check_probes_the_leaf_itself(leaf):
    # reshape(-1) copies a transposed leaf, and cannot write a read-only one,
    # so probing through it would perturb a copy, or fail, instead of the leaf
    base = np.random.default_rng(9).normal(size=(3, 4))
    if leaf == "transposed":
        data = base.T
    else:
        data = base.copy()
        data.flags.writeable = False
    expected = data.copy()
    t = Tensor(data)
    assert grad_check(lambda a: ad.tensor_sum(ad.square(a)), [t], step=1e-6) < 1e-7
    assert t.data is data and np.array_equal(data, expected)


def _value_and_grads(build, arrays, probe_seed=0):
    """Forward value of build(*leaves) and every leaf gradient of sum(out * probe)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*leaves)
    probe = np.random.default_rng(probe_seed).uniform(0.5, 1.5, size=out.data.shape)
    backward(ad.tensor_sum(out * Tensor(probe)))
    return out.data, [t.grad for t in leaves]


def _assert_bit_identical(fused, composite, arrays):
    (out_f, grads_f), (out_c, grads_c) = (_value_and_grads(fused, arrays),
                                          _value_and_grads(composite, arrays))
    assert np.array_equal(out_f, out_c)
    assert np.array_equal(np.signbit(out_f), np.signbit(out_c))
    for g_f, g_c in zip(grads_f, grads_c):
        assert g_f.shape == g_c.shape and np.array_equal(g_f, g_c)


@pytest.mark.parametrize("bias_shape", [(1, 4), (5, 4), ()])
def test_linear_equals_matmul_then_add(bias_shape):
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=(5, 4)), rng.normal(size=(4, 4)), rng.normal(size=bias_shape)]

    def chain(affine):
        # W and b feed both maps and x reaches the second through the first,
        # so each gradient sums several contributions in tape order
        return lambda x, W, b: affine(tanh(affine(tanh(x), W, b)), W, b)

    _assert_bit_identical(chain(ad.linear),
                          chain(lambda x, W, b: ad.add(matmul(x, W), b)), arrays)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (None, True), (0, False),
                                           (0, True), (1, False), (1, True)])
def test_mean_equals_sum_times_scale(axis, keepdims):
    a = np.random.default_rng(22).normal(size=(3, 5))
    count = a.size if axis is None else a.shape[axis]
    _assert_bit_identical(
        lambda t: ad.tensor_mean(ad.square(t), axis=axis, keepdims=keepdims),
        lambda t: ad.mul(ad.tensor_sum(ad.square(t), axis=axis, keepdims=keepdims),
                         1.0 / count), [a])


@pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), (3, 1)),
                                    ((3, 4), ()), ((1, 4), (3, 4))])
def test_sub_equals_add_neg(shapes):
    rng = np.random.default_rng(23)
    a, b = (rng.normal(size=s) for s in shapes)
    if a.shape == b.shape:  # signed zeros: 0 - 0, -0 - 0, 0 - -0 and -0 - -0
        a.flat[:4], b.flat[:4] = [0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]
    _assert_bit_identical(ad.sub, lambda x, y: ad.add(x, ad.neg(y)), [a, b])


def _gru_grads_per_gate(x, h, Wz, Uz, bz, Wr, Ur, br, Wn, Un, bn, g):
    """The cell's closed-form backward with one product and one sum per weight."""
    z = 1.0 / (1.0 + np.exp(-(x @ Wz + h @ Uz + bz)))
    r = 1.0 / (1.0 + np.exp(-(x @ Wr + h @ Ur + br)))
    rh = r * h
    n = np.tanh(x @ Wn + rh @ Un + bn)
    keep = 1.0 + -z
    dn = g * keep * (1.0 - n * n)
    dz = g * (h - n) * z * keep
    drh = dn @ Un.T
    dr = drh * h * r * (1.0 - r)
    dh = g * z + drh * r + dz @ Uz.T + dr @ Ur.T
    dx = dz @ Wz.T + dr @ Wr.T + dn @ Wn.T
    weights = [(x.T @ d, u_in.T @ d, d.sum(axis=0, keepdims=True))
               for d, u_in in ((dz, h), (dr, h), (dn, rh))]
    return [dx, dh, *(w for gate in weights for w in gate)]


@pytest.mark.parametrize("batch,d_in,hidden", [(1, 3, 4), (3, 3, 4), (32, 16, 32), (8, 64, 32)])
def test_gru_cell_stacked_gradients_equal_per_gate_products(batch, d_in, hidden):
    inputs = _gru_inputs(np.random.default_rng(24), batch, d_in, hidden)
    arrays = [t.data for t in inputs]
    out, grads = _value_and_grads(ad.gru_cell, arrays, probe_seed=1)
    probe = np.random.default_rng(1).uniform(0.5, 1.5, size=out.shape)
    expected = _gru_grads_per_gate(*arrays, probe)
    assert len(grads) == len(expected) == 11
    for got, want in zip(grads, expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("build,shapes", [
    (lambda x, W, b: ad.tensor_sum(tanh(ad.linear(x, W, b))), [(3, 4), (4, 2), (1, 2)]),
    (lambda a: ad.tensor_sum(ad.tensor_mean(exp(a), axis=1) * Tensor([0.3, -0.7, 1.1])),
     [(3, 4)]),
    (lambda a: ad.tensor_mean(ad.square(a), axis=0, keepdims=True)[0, 1], [(3, 4)]),
    (lambda a, b: ad.tensor_sum(ad.square(ad.sub(a, b))), [(3, 4), (1, 4)]),
])
def test_grad_check_fused_ops(build, shapes):
    rng = np.random.default_rng(25)
    tensors = [Tensor(rng.normal(size=s)) for s in shapes]
    assert grad_check(build, tensors, step=1e-6) < 1e-6
