"""Minimal reverse-mode autodiff on float64 numpy arrays.

Every value is carried by a :class:`Tensor` wrapping a dense row-major
float64 ndarray (the "grid tensor" of the rest of the package).  Ops build a
tape only when gradients are enabled and some input requires them, so
inference paths pay essentially nothing beyond the numpy calls.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "grad_enabled",
    "matmul",
    "exp",
    "clip",
    "permute_columns",
    "append_zero_column",
    "sum_",
    "mean_",
]

_GRAD_ENABLED = True


def grad_enabled():
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 ndarray plus an optional backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Reverse-accumulate gradients from this node.

        ``seed`` defaults to ones, which is only meaningful for scalars.
        """
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed needs a scalar output")
            seed = np.ones_like(self.data)
        order = _topo_order(self)
        self.grad = np.array(seed, dtype=np.float64)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # The tape is single-use; drop references so memory is reclaimed.
            node._backward = None
            node._parents = ()

    # ---- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_const(self, p)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis, keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value):
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _topo_order(root):
    """Reverse topological order by iterative post-order DFS."""
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
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    order.reverse()
    return order


def _accumulate(tensor, grad):
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = np.array(grad, dtype=np.float64)
    else:
        tensor.grad = tensor.grad + grad


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _node(data, parents, backward):
    """Create a result tensor, attaching the tape edge when needed."""
    tracked = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---- arithmetic ---------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(a.data / b.data, (a, b), backward)


def neg(a):
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, -g)

    return _node(-a.data, (a,), backward)


def pow_const(a, p):
    a = as_tensor(a)
    p = float(p)

    def backward(g):
        _accumulate(a, g * p * np.power(a.data, p - 1.0))

    return _node(np.power(a.data, p), (a,), backward)


def matmul(a, b):
    """Matrix product with numpy stacking semantics (ndim >= 2 each side)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")

    def backward(g):
        if b.ndim == 2:
            # a's leading axes fold into the rows of one 2-D GEMM each way
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g2)
            return
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(a.data @ b.data, (a, b), backward)


# ---- elementwise nonlinearities -----------------------------------------


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _node(out_data, (a,), backward)


def clip(a, lo, hi):
    """Clamp with pass-through gradient strictly inside (lo, hi)."""
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        _accumulate(a, g * mask)

    return _node(np.clip(a.data, lo, hi), (a,), backward)


# ---- shape manipulation --------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes=None):
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), backward)


def _is_basic_index(idx):
    """True for ints, slices, ``...`` and ``None`` (alone or in a tuple):
    numpy basic indexing, which selects each element at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        p is None or p is Ellipsis or isinstance(p, slice)
        or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
        for p in parts
    )


def getitem(a, idx):
    a = as_tensor(a)

    def backward(g):
        full = np.zeros(a.shape)
        if _is_basic_index(idx):
            full[idx] = g
        else:
            # advanced indices may repeat an element; add.at sums the repeats
            np.add.at(full, idx, g)
        _accumulate(a, full)

    return _node(a.data[idx], (a,), backward)


def permute_columns(a, perm):
    """Reorder the last axis by an index array: a permutation, or distinct
    columns picked from it."""
    a = as_tensor(a)
    perm = np.asarray(perm)

    def backward(g):
        full = np.zeros(a.shape)
        full[..., perm] = g
        _accumulate(a, full)

    return _node(a.data[..., perm], (a,), backward)


def append_zero_column(a):
    """``[a | 0]``: a (B, d) tensor with a zero column appended, (B, d + 1).
    A flow stack starts its packed ``[h | log-det]`` state with it."""
    a = as_tensor(a)
    out = np.zeros((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = a.data

    def backward(g):
        _accumulate(a, g[:, :-1])

    return _node(out, (a,), backward)


# ---- reductions ----------------------------------------------------------


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        count = math.prod(a.shape[ax] for ax in np.atleast_1d(axis))

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape) / count)
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape) / count)

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)
