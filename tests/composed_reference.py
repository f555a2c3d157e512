"""Reference implementations the fused GELU, layer-norm, the conditioner
pass and the fused flow layers are tested against, and the tape ops
``log``, ``sqrt``, ``tanh``, ``erf``, ``concat`` and ``detach``, which only
these compositions use.

``gelu``, ``layer_norm`` and ``clamp_scale`` are composed from tape ops, so
their gradients follow from the tape's elementary rules.  The two
conditioner passes are built from them, read only a ``Conditioner``'s
parameters and masks, and count themselves in ``net.calls`` as it does:
``composed_call`` is a dense pass; ``unbound_call`` a MADE-masked one,
which multiplies each weight by its mask as a tape op and rebuilds every
masked weight and condition product on each call.  ``composed_pass``
picks one of them by ``net.masks``.

The layer bodies below are the flow layers composed from tape ops, as they
were before each layer became one ``affine_step`` or ``batchnorm_flow``
node, and the AR layers' Jacobi inverse, one composed pass a sweep.  Each
forward body gives (y, ld); ``packed`` wraps it as a layer's packed
``step``, which splits ``[h | ld_in]`` with slices and joins ``[y | ld_in +
ld]`` with ``concat``, so the log-det adds keep the stack's order.
``COMPOSED_LAYERS`` lists (class, method name, body);
``use_composed_layers(monkeypatch)`` patches them all in, and a layer's
``forward`` and ``inverse``, a ``FlowStack``, a sampler or ``joint_loss``
then runs through them.  ``tape_nodes`` counts the nodes behind a result,
so a test can show that a run went through the patched bodies.
"""

import numpy as np
from scipy.special import erf as scipy_erf

from urbanflows.errors import ConfigurationError, ModeError
from urbanflows.flow_layers import (
    CLAMP,
    BatchNormFlow,
    CouplingLayer,
    MaskedARLayer,
)
from urbanflows.numerics import Tensor, as_tensor, exp
from urbanflows.numerics.tape import _accumulate, _node, _topo_order


# Tape ops the package itself no longer calls, kept for the compositions
# below.  test_numerics checks log, sqrt, tanh and concat against finite
# differences, and erf through the composed GELU against the fused one.


def log(a):
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.data)

    return _node(np.log(a.data), (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / out_data)

    return _node(out_data, (a,), backward)


def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


def erf(a):
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g * _TWO_OVER_SQRT_PI * np.exp(-a.data * a.data))

    return _node(scipy_erf(a.data), (a,), backward)


def detach(t):
    """A constant tensor holding ``t``'s values: no gradient flows back."""
    return Tensor(t.data)


def concat(parts, axis):
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            _accumulate(part, g[tuple(idx)])

    return _node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)



def layer_norm(x, gamma, beta, axis=-1, eps=1e-5):
    """Normalize over one axis; gamma/beta must broadcast against x."""
    mu = x.mean(axis=axis, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    normed = centered / sqrt(var + eps)
    return normed * gamma + beta


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def gelu(x):
    """Exact Gaussian error linear unit: 0.5 x (1 + erf(x/sqrt(2)))."""
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def clamp_scale(s):
    """Smoothly squash raw scale outputs into [-CLAMP, CLAMP]."""
    return CLAMP * tanh(s * (1.0 / CLAMP))


def composed_call(net, x, cond=None):
    """One pass of the dense ``Conditioner`` ``net``; counts it in
    ``net.calls`` as the conditioner itself does.  ``cond`` is unused: a
    dense conditioner reads the condition as part of ``x``."""
    net.calls += 1
    h = x
    for w, b, _ in net.hidden:
        h = gelu(h @ w + b)
    w, b = net.final
    out = h @ w + b
    return clamp_scale(out[:, : net.d]), out[:, net.d :]


def unbound_call(net, x, cond=None):
    """One pass of the MADE-masked ``Conditioner`` ``net``, binding
    nothing: each masked weight ``w * mask`` (the mask read from
    ``net.masks``) and each condition term is a tape op of this pass."""
    net.calls += 1
    h = x
    for (w, b, v), mask in zip(net.hidden, net.masks):
        pre = h @ (w * Tensor(mask)) + b
        if v is not None:
            pre = pre + cond @ v
        h = gelu(pre)
    w, b = net.final
    out = h @ (w * Tensor(net.masks[-1])) + b
    return clamp_scale(out[:, : net.d]), out[:, net.d :]


def composed_pass(net, x, cond=None):
    """One composed pass of ``net``: ``unbound_call`` when it is masked,
    ``composed_call`` when it is dense."""
    return (composed_call if net.masks is None else unbound_call)(net, x, cond)


def coupling_forward(layer, x, cond, mode="train"):
    """Coupling and condition projection, data -> latent."""
    h1 = x[:, : layer.half]
    h2 = x[:, layer.half :]
    s, b = composed_pass(layer.net, concat([h1, cond], axis=1) if layer.reads_h1 else cond)
    y2 = h2 * exp(s) + b
    return concat([h1, y2], axis=1), s.sum(axis=1)


def coupling_inverse(layer, y, cond, mode="eval"):
    h1 = y[:, : layer.half]
    y2 = y[:, layer.half :]
    s, b = composed_pass(layer.net, concat([h1, cond], axis=1) if layer.reads_h1 else cond)
    h2 = (y2 - b) * exp(-s)
    return concat([h1, h2], axis=1)


def ar_forward(layer, x, cond=None, mode="train"):
    """Masked and unconditional AR, data -> latent."""
    s, b = composed_pass(layer.net, x, cond)
    return x * exp(s) + b, s.sum(axis=1)


def ar_inverse(layer, y, cond=None, mode="eval"):
    """The Jacobi fixed-point inverse from x = 0, one composed pass a
    sweep, stopping at the first sweep that leaves x unchanged."""
    x = Tensor(np.zeros(y.shape))
    for _ in range(layer.d + 1):
        s, b = composed_pass(layer.net, x, cond)
        x_next = (y - b) * exp(-s)
        if np.array_equal(x_next.data, x.data):
            break
        x = x_next
    return x_next


def batchnorm_forward(layer, x, mode="train", update_stats=True):
    if mode == "train":
        if x.shape[0] < 2:
            raise ConfigurationError("train-mode batchnorm needs batch size >= 2")
        mu = x.mean(axis=0, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=0, keepdims=True)
        if update_stats:
            m = layer.momentum
            layer.running_mean.data = m * layer.running_mean.data + (1 - m) * mu.data[0]
            layer.running_var.data = m * layer.running_var.data + (1 - m) * var.data[0]
    else:
        mu = detach(layer.running_mean).reshape(1, layer.d)
        centered = x - mu
        var = detach(layer.running_var).reshape(1, layer.d)
    y = centered / (var + layer.eps) ** 0.5
    # identical for every sample in the batch, broadcast to (B,)
    ld = log(var + layer.eps).sum() * (-0.5)
    return y, ld * Tensor(np.ones(x.shape[0]))


def batchnorm_inverse(layer, y, mode="eval"):
    if mode == "train":
        raise ModeError("batchnorm flow cannot invert with batch statistics")
    mu = detach(layer.running_mean).reshape(1, layer.d)
    var = detach(layer.running_var).reshape(1, layer.d)
    return y * (var + layer.eps) ** 0.5 + mu


def packed(body):
    """A packed ``step`` around a composed forward ``body`` giving (y, ld)."""

    def step(layer, state, *args):
        y, ld = body(layer, state[:, :-1], *args)
        return concat([y, (state[:, -1] + ld).reshape(-1, 1)], axis=1)

    return step


# ConditionProjectionLayer and UncondARLayer inherit these methods
COMPOSED_LAYERS = (
    (CouplingLayer, "step", packed(coupling_forward)),
    (CouplingLayer, "inverse", coupling_inverse),
    (MaskedARLayer, "step", packed(ar_forward)),
    (MaskedARLayer, "inverse", ar_inverse),
    (BatchNormFlow, "step", packed(batchnorm_forward)),
    (BatchNormFlow, "inverse", batchnorm_inverse),
)


def tape_nodes(t):
    """The number of tape nodes ``t`` was computed through, before its
    backward runs."""
    return sum(1 for node in _topo_order(t) if node._parents)


def use_composed_layers(monkeypatch):
    for cls, name, body in COMPOSED_LAYERS:
        monkeypatch.setattr(cls, name, body)
