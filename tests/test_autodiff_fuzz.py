"""Random small graphs over every autodiff op and the elementary ops of oracles.

Each example draws a few leaves, with broadcasting shapes among them, and up
to eight op nodes over them.  Operands are picked so that no input sits near
a kink or pole: clip bounds, max/min ties, log and div near zero.  For every
leaf the analytic gradient must match central finite differences, and no
gradient may share memory with a gradient contribution, another gradient or
any tensor's data.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from conftest import reachable
from uban import autodiff as ad
from uban.autodiff import Tensor

MAX_ROWS, MAX_COLS, MAX_NODES = 4, 5, 8
MARGIN = 1e-3  # distance kept from clip bounds and between a max/min and the runner-up
CLIP = (-0.5, 0.5)
NOT_OPS = {"Tensor", "ShapeMismatch", "NonFiniteLoss", "backward", "grad_check", "no_grad"}
ORACLE_OPS = {"matmul", "exp", "sigmoid", "tanh"}  # the ops that linear and gru_cell fuse


def _leaf_shape(draw):
    rows, cols = draw(st.integers(1, MAX_ROWS)), draw(st.integers(1, MAX_COLS))
    return draw(st.sampled_from([(), (rows, cols), (1, cols), (rows, 1)]))


def _tie_free(v, axis):
    """True when the extreme along axis is clear of the runner-up by MARGIN."""
    v = v.reshape(-1) if axis is None else np.moveaxis(v, axis, -1)
    if v.shape[-1] < 2:
        return True
    top = np.sort(v, axis=-1)
    return bool((top[..., -1] - top[..., -2] > MARGIN).all()
                and (top[..., 1] - top[..., 0] > MARGIN).all())


def _pick(draw, pool, accept=lambda t: True):
    """Index of a pool tensor that passes accept, or None."""
    ok = [i for i, t in enumerate(pool) if accept(t)]
    return draw(st.sampled_from(ok)) if ok else None


def _unary(fn, accept=lambda t: True):
    def build(draw, pool, new_leaf):
        i = _pick(draw, pool, accept)
        return None if i is None else (fn, [i])
    return build


def _broadcast(*shapes):
    """The broadcast shape, or None."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        return None


def _binary(fn, accept_b=lambda t: True):
    def build(draw, pool, new_leaf):
        i = _pick(draw, pool)
        j = _pick(draw, pool, lambda t: accept_b(t)
                  and _broadcast(pool[i].data.shape, t.data.shape) is not None)
        return None if j is None else (fn, [i, j])
    return build


def _axis_op(fn, tie_free=False):
    def build(draw, pool, new_leaf):
        i = _pick(draw, pool)
        axis = draw(st.sampled_from([None, *range(pool[i].data.ndim)]))
        if tie_free and not _tie_free(pool[i].data, axis):
            return None
        keepdims = draw(st.booleans())
        return (lambda a: fn(a, axis=axis, keepdims=keepdims)), [i]
    return build


def _softmax(fn):
    def build(draw, pool, new_leaf):
        i = _pick(draw, pool, lambda t: t.data.ndim >= 1)
        if i is None:
            return None
        axis = draw(st.integers(0, pool[i].data.ndim - 1))
        return (lambda a: fn(a, axis=axis)), [i]
    return build


def _matmul(draw, pool, new_leaf):
    i = _pick(draw, pool, lambda t: t.data.ndim == 2)
    j = None if i is None else _pick(
        draw, pool, lambda t: t.data.ndim == 2 and t.data.shape[0] == pool[i].data.shape[1])
    return None if j is None else (oracles.matmul, [i, j])


def _linear(draw, pool, new_leaf):
    built = _matmul(draw, pool, new_leaf)
    if built is None:
        return None
    i, j = built[1]
    out = (pool[i].data.shape[0], pool[j].data.shape[1])
    k = _pick(draw, pool, lambda t: _broadcast(out, t.data.shape) == out)  # the bias
    return None if k is None else (ad.linear, [i, j, k])


def _concat(draw, pool, new_leaf):
    i = _pick(draw, pool, lambda t: t.data.ndim >= 1)
    if i is None:
        return None
    shape = pool[i].data.shape
    axis = draw(st.integers(0, len(shape) - 1))
    limit = (MAX_ROWS, MAX_COLS)[axis] if len(shape) == 2 else MAX_COLS
    other = [k for k in range(len(shape)) if k != axis]

    def fits(t):
        s = t.data.shape
        return (len(s) == len(shape) and all(s[k] == shape[k] for k in other)
                and s[axis] + shape[axis] <= limit)

    j = _pick(draw, pool, fits)  # may be i itself: one tensor twice
    return None if j is None else ((lambda a, b: ad.concat([a, b], axis=axis)), [i, j])


def _slice(draw, pool, new_leaf):
    i = _pick(draw, pool, lambda t: t.data.ndim >= 1)
    if i is None:
        return None
    shape = pool[i].data.shape
    axis = draw(st.integers(0, len(shape) - 1))
    lo = draw(st.integers(0, shape[axis] - 1))
    hi = draw(st.integers(lo + 1, shape[axis]))
    key = (slice(None),) * axis + (slice(lo, hi),)  # a row or a column slice
    return (lambda a: ad.slice_(a, key)), [i]


def _gather(draw, pool, new_leaf):
    i = _pick(draw, pool, lambda t: t.data.ndim >= 1)
    if i is None:
        return None
    rows = pool[i].data.shape[0]
    idx = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=MAX_ROWS))
    return (lambda a: ad.gather_rows(a, idx)), [i]


def _gru(draw, pool, new_leaf):
    i = _pick(draw, pool, lambda t: t.data.ndim == 2)
    if i is None:
        return None
    j = _pick(draw, pool, lambda t: t.data.ndim == 2 and t.data.shape[0] == pool[i].data.shape[0])
    d, H = pool[i].data.shape[1], pool[j].data.shape[1]
    weights = [new_leaf(shape) for shape in ((d, H), (H, H), (1, H)) * 3]
    return ad.gru_cell, [i, j, *weights]


OPS = {
    "add": _binary(ad.add),
    "sub": _binary(ad.sub),
    "mul": _binary(ad.mul),
    "div": _binary(ad.div, lambda t: (np.abs(t.data) > 0.3).all()),
    "neg": _unary(ad.neg),
    "exp": _unary(oracles.exp, lambda t: (np.abs(t.data) < 3.0).all()),
    "log": _unary(ad.log, lambda t: (t.data > 0.1).all()),
    "sigmoid": _unary(oracles.sigmoid),
    "tanh": _unary(oracles.tanh),
    "softplus": _unary(ad.softplus),
    "square": _unary(ad.square),
    "clip": _unary(lambda a: ad.clip(a, *CLIP),
                   lambda t: (np.abs(t.data[..., None] - CLIP) > MARGIN).all()),
    "matmul": _matmul,
    "linear": _linear,
    "concat": _concat,
    "slice_": _slice,
    "gather_rows": _gather,
    "tensor_sum": _axis_op(ad.tensor_sum),
    "tensor_mean": _axis_op(ad.tensor_mean),
    "reduce_max": _axis_op(ad.reduce_max, tie_free=True),
    "reduce_min": _axis_op(ad.reduce_min, tie_free=True),
    "softmax": _softmax(ad.softmax),
    "log_softmax": _softmax(ad.log_softmax),
    "gru_cell": _gru,
}


def test_fuzzer_covers_every_op():
    assert set(OPS) == (set(ad.__all__) - NOT_OPS) | ORACLE_OPS


@st.composite
def graphs(draw):
    """(leaf arrays, program, probes): program steps are (fn, pool indices) for
    an op and (None, k) for leaf k; probes weight each unused node in the loss."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leaves, program, pool = [], [], []

    def new_leaf(shape):
        leaves.append(rng.uniform(-1.5, 1.5, size=shape))
        program.append((None, len(leaves) - 1))
        pool.append(Tensor(leaves[-1]))
        return len(pool) - 1

    for _ in range(draw(st.integers(1, 3))):
        new_leaf(_leaf_shape(draw))
    for _ in range(draw(st.integers(1, MAX_NODES))):
        built = OPS[draw(st.sampled_from(sorted(OPS)))](draw, pool, new_leaf)
        if built is None:
            continue
        fn, args = built
        out = fn(*(pool[i] for i in args))
        if np.abs(out.data).max() < 20:  # a node that grows too large is dropped
            program.append(built)
            pool.append(out)
    used = {i for fn, args in program if fn is not None for i in args}
    sinks = [i for i, (fn, _) in enumerate(program) if fn is not None and i not in used]
    probes = {i: rng.uniform(0.5, 1.5, size=pool[i].data.shape) for i in sinks}
    return leaves, program, probes


def _loss(program, probes, leaves):
    pool = []
    for fn, args in program:
        pool.append(leaves[args] if fn is None else fn(*(pool[i] for i in args)))
    terms = [ad.tensor_sum(pool[i] * Tensor(p)) for i, p in probes.items()]
    return sum(terms[1:], terms[0]) if terms else ad.tensor_sum(pool[-1])


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_random_graph_gradients(graph):
    arrays, program, probes = graph
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    contributions = []
    accumulate = ad._accumulate

    def recording(t, g):
        contributions.append(g)
        accumulate(t, g)

    root = _loss(program, probes, leaves)
    with mock.patch.object(ad, "_accumulate", recording):
        ad.backward(root)
    nodes = reachable(root)
    grads = [t.grad for t in nodes if t.grad is not None]
    for leaf in leaves:
        if leaf.grad is None:  # a leaf no loss term reads
            continue
        assert leaf.grad.shape == leaf.data.shape and leaf.grad.dtype == np.float64
        # a 0-d sum comes back as a numpy scalar, which nothing can write through
        assert isinstance(leaf.grad, np.generic) or leaf.grad.flags.writeable
        others = (contributions + [g for g in grads if g is not leaf.grad]
                  + [t.data for t in nodes])
        assert not any(np.shares_memory(leaf.grad, o) for o in others)

    err = ad.grad_check(lambda *ls: _loss(program, probes, ls),
                        [Tensor(a.copy()) for a in arrays])
    assert err < 1e-6
