"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Define-by-run: every op records its parents and a backward closure on the
output tensor, so the graph is rebuilt on each forward pass.  Backward is a
deterministic topological sweep, which makes gradients bitwise reproducible.
Inside ``no_grad()`` ops compute the same values but record no graph.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatch",
    "NonFiniteLoss",
    "add", "sub", "neg", "mul", "div", "linear", "concat", "slice_",
    "gather_rows", "tensor_sum", "tensor_mean", "reduce_max", "reduce_min",
    "log", "softplus", "square", "clip", "softmax", "log_softmax", "gru_cell",
    "backward", "grad_check", "no_grad",
]


class ShapeMismatch(ValueError):
    """Raised when op inputs have incompatible shapes."""


class NonFiniteLoss(ValueError):
    """Raised when a gradient-check probe produces a non-finite loss."""


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backward."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None,
                 op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self.op = op

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, grad={self.requires_grad})"

    # convenience operators
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return slice_(self, key)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _accumulate(t, g):
    """Add one gradient contribution to t.grad.

    The first contribution is copied, so t.grad never aliases a contribution
    (often a view of another node's grad); later ones are added in place.
    """
    if not t.requires_grad:
        return
    if type(g) is not np.ndarray or g.dtype != np.float64:
        g = np.asarray(g, dtype=np.float64)
    if g.shape != t.data.shape:
        g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


_grad_enabled = True


@contextmanager
def no_grad():
    """Run ops without recording parents or backward closures (inference)."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, parents, backward_fn, op):
    if not _grad_enabled:
        return Tensor(data, op=op)
    for p in parents:
        if p.requires_grad:
            return Tensor(data, True, tuple(parents), backward_fn, op)
    return Tensor(data, False, tuple(parents), None, op)


def _check_broadcast(op, a, b):
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# elementwise and structural ops

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a.data, b.data)
    out_data = a.data + b.data

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(out_data, (a, b), back, "add")


def neg(a):
    a = _as_tensor(a)

    def back(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), back, "neg")


def sub(a, b):
    """a - b as one node; a.data - b.data equals the composite add(a, neg(b)) bit for bit."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a.data, b.data)

    def back(g):
        _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.data.shape))

    return _make(a.data - b.data, (a, b), back, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a.data, b.data)
    out_data = a.data * b.data

    def back(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(out_data, (a, b), back, "mul")


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("div", a.data, b.data)
    out_data = a.data / b.data

    def back(g):
        _accumulate(a, g / b.data)
        _accumulate(b, -g * a.data / (b.data * b.data))

    return _make(out_data, (a, b), back, "div")


def linear(x, W, b):
    """x @ W + b as one node, with the values and gradients of matmul then add."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    xd, Wd = x.data, W.data
    if xd.ndim != 2 or Wd.ndim != 2 or xd.shape[1] != Wd.shape[0]:
        raise ShapeMismatch(f"linear: shapes {xd.shape} and {Wd.shape}")
    prod = xd @ Wd
    _check_broadcast("linear", prod, b.data)
    out_data = prod + b.data
    if out_data.shape != prod.shape:
        raise ShapeMismatch(f"linear: bias of shape {b.data.shape} for output {prod.shape}")

    def back(g):
        _accumulate(b, g)
        _accumulate(x, g @ Wd.T)
        _accumulate(W, xd.T @ g)

    return _make(out_data, (x, W, b), back, "linear")


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat: empty input list")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeMismatch(
            f"concat: incompatible shapes {[t.data.shape for t in tensors]} on axis {axis}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_data, tensors, back, "concat")


def slice_(a, key):
    a = _as_tensor(a)
    out_data = a.data[key]

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        _accumulate(a, full)

    return _make(out_data, (a,), back, "slice")


def gather_rows(a, indices):
    """Select rows of a 2-D tensor; duplicate indices accumulate gradients."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = a.data[idx]

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _make(out_data, (a,), back, "gather_rows")


# ---------------------------------------------------------------------------
# reductions

def _spread(a, g, axis, keepdims):
    """The gradient of a sum over axis: g spread back over the shape of a."""
    if axis is None:
        return np.full_like(a.data, 1.0) * g
    return np.broadcast_to(g if keepdims else np.expand_dims(g, axis), a.data.shape)


def tensor_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)

    def back(g):
        _accumulate(a, _spread(a, g, axis, keepdims))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), back, "sum")


def tensor_mean(a, axis=None, keepdims=False):
    """sum * (1 / count) as one node, with the values and gradient of that composite."""
    a = _as_tensor(a)
    scale = 1.0 / (a.data.size if axis is None else a.data.shape[axis])

    def back(g):
        _accumulate(a, _spread(a, g * scale, axis, keepdims))

    return _make(a.data.sum(axis=axis, keepdims=keepdims) * scale, (a,), back, "mean")


def _reduce_extreme(a, axis, keepdims, argfn, name):
    a = _as_tensor(a)
    if axis is None:
        flat_idx = argfn(a.data.reshape(-1))
        out_data = a.data.reshape(-1)[flat_idx]

        def back(g):
            full = np.zeros_like(a.data).reshape(-1)
            full[flat_idx] = g
            _accumulate(a, full.reshape(a.data.shape))

        return _make(out_data, (a,), back, name)

    idx = argfn(a.data, axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def back(g):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), g_exp, axis=axis)
        _accumulate(a, full)

    return _make(out_data, (a,), back, name)


def reduce_max(a, axis=None, keepdims=False):
    # ties resolve to the first occurrence, matching np.argmax
    return _reduce_extreme(a, axis, keepdims, np.argmax, "max")


def reduce_min(a, axis=None, keepdims=False):
    return _reduce_extreme(a, axis, keepdims, np.argmin, "min")


# ---------------------------------------------------------------------------
# nonlinearities

def log(a):
    a = _as_tensor(a)
    out_data = np.log(a.data)

    def back(g):
        _accumulate(a, g / a.data)

    return _make(out_data, (a,), back, "log")


def softplus(a):
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|): no overflow for large |x|,
    and within 2 ulp of np.logaddexp(0, x), which loops over scalar libm calls."""
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))

    def back(g):
        with np.errstate(over="ignore"):
            _accumulate(a, g / (1.0 + np.exp(-a.data)))

    return _make(out_data, (a,), back, "softplus")


def square(a):
    a = _as_tensor(a)

    def back(g):
        _accumulate(a, 2.0 * g * a.data)

    return _make(a.data * a.data, (a,), back, "square")


def clip(a, lo, hi):
    """Clamp values to [lo, hi]; gradient passes through the interior."""
    a = _as_tensor(a)
    out_data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def back(g):
        _accumulate(a, g * mask)

    return _make(out_data, (a,), back, "clip")


def softmax(a, axis=-1):
    """Numerically stable softmax (subtracts the per-row max)."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, out_data * (g - inner))

    return _make(out_data, (a,), back, "softmax")


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def back(g):
        _accumulate(a, g - soft * g.sum(axis=axis, keepdims=True))

    return _make(out_data, (a,), back, "log_softmax")


# ---------------------------------------------------------------------------
# fused recurrent cell

def gru_cell(x, h, Wz, Uz, bz, Wr, Ur, br, Wn, Un, bn):
    """One GRU step (Cho et al. 2014) as a single node: h' = (1 - z) * n + z * h.

    The forward evaluates the same numpy expressions, in the same order, as
    the composite of matmul/add/sigmoid/tanh/mul nodes (tests/oracles.py), so
    its output is bit-identical to that graph.  The backward is closed form.
    """
    x, h, Wz, Uz, bz, Wr, Ur, br, Wn, Un, bn = inputs = [
        _as_tensor(t) for t in (x, h, Wz, Uz, bz, Wr, Ur, br, Wn, Un, bn)]
    xd, hd = x.data, h.data
    if xd.ndim != 2 or hd.ndim != 2 or xd.shape[0] != hd.shape[0]:
        raise ShapeMismatch(f"gru_cell: x {xd.shape} and h {hd.shape}")
    H = hd.shape[1]
    for t, shape in zip(inputs[2:], ((xd.shape[1], H), (H, H), (1, H)) * 3):
        if t.data.shape != shape:
            raise ShapeMismatch(f"gru_cell: weight of shape {t.data.shape}, "
                                f"expected {shape}")
    with np.errstate(over="ignore"):  # sigmoid of both gates; exp overflow gives exactly 0
        z = 1.0 / (1.0 + np.exp(-(xd @ Wz.data + hd @ Uz.data + bz.data)))
        r = 1.0 / (1.0 + np.exp(-(xd @ Wr.data + hd @ Ur.data + br.data)))
    rh = r * hd
    n = np.tanh(xd @ Wn.data + rh @ Un.data + bn.data)
    keep = 1.0 + -z
    out_data = keep * n + z * hd

    def back(g):
        dn = g * keep * (1.0 - n * n)
        dz = g * (hd - n) * z * keep
        drh = dn @ Un.data.T
        dr = drh * hd * r * (1.0 - r)
        # one product per group of gates that share an operand (Appleyard et
        # al. 2016); on this BLAS each column block equals that gate's own
        # product bit for bit, which tests/test_autodiff.py checks
        d_all = np.concatenate((dz, dr, dn), axis=1)
        dW, dU, db = xd.T @ d_all, hd.T @ d_all[:, :2 * H], d_all.sum(axis=0, keepdims=True)
        for k, (W, U, b) in enumerate(((Wz, Uz, bz), (Wr, Ur, br), (Wn, Un, bn))):
            cols = slice(k * H, (k + 1) * H)
            _accumulate(W, dW[:, cols])
            _accumulate(U, dU[:, cols] if k < 2 else rh.T @ dn)
            _accumulate(b, db[:, cols])
        if h.requires_grad:
            _accumulate(h, g * z + drh * r + dz @ Uz.data.T + dr @ Ur.data.T)
        if x.requires_grad:
            _accumulate(x, dz @ Wz.data.T + dr @ Wr.data.T + dn @ Wn.data.T)

    return _make(out_data, inputs, back, "gru_cell")


# ---------------------------------------------------------------------------
# backward, gradient checking

def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root):
    """Propagate gradients from a scalar root to every requires_grad leaf."""
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def grad_check(loss_fn, tensors, step=1e-6, wrt=None):
    """Compare analytic gradients against central finite differences.

    Returns the max over checked coordinates of
    |analytic - numeric| / max(1, |analytic|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    tensors = list(tensors)
    for t in tensors:
        t.requires_grad = True
        t.grad = None
    loss = loss_fn(*tensors)
    if loss.data.size != 1:
        raise ValueError("loss_fn must return a scalar")
    if not np.isfinite(loss.data).all():
        raise NonFiniteLoss("loss is non-finite at the probe point")
    backward(loss)
    checked = tensors if wrt is None else list(wrt)
    analytic = []
    for t in checked:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        analytic.append(t.grad.copy())

    max_err = 0.0
    for t, a_grad in zip(checked, analytic):
        # probe a private C-contiguous copy: reshape(-1) is then a view of what
        # loss_fn reads, even for a transposed or read-only leaf
        original = t.data
        t.data = np.array(original, order="C")
        flat = t.data.reshape(-1)
        a_flat = a_grad.reshape(-1)
        try:
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = float(loss_fn(*tensors).data)
                flat[i] = orig - step
                f_minus = float(loss_fn(*tensors).data)
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NonFiniteLoss(
                        f"non-finite loss while probing coordinate {i} of {t!r}")
                numeric = (f_plus - f_minus) / (2.0 * step)
                err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]))
                if err > max_err:
                    max_err = err
        finally:
            t.data = original
    return max_err
