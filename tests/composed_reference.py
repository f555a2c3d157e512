"""Reference implementations the fused GELU, layer-norm and the
conditioner-MLP primitive are tested against.

``gelu``, ``layer_norm`` and ``clamp_scale`` are composed from tape ops, so
their gradients follow from the tape's elementary rules.  The two
conditioner passes are built from them, one tape op at a time:
``composed_call`` is a ``ConditionerNet`` pass and has the signature of
``ConditionerNet.__call__``; ``unbound_call`` is the masked conditioner
pass that rebuilds every masked weight and condition product on each call,
and ``unbound_bind`` has the signature of ``MaskedConditioner.bind``.  A
test can monkeypatch either onto its class and run a layer or a whole
stack, forward or inverse, through the reference.
"""

import numpy as np

from urbanflows.errors import ConfigurationError
from urbanflows.flow_layers import CLAMP
from urbanflows.numerics import erf, sqrt, tanh


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


def composed_call(net, x):
    """One pass of the ConditionerNet ``net``."""
    h = x
    for w, b, _ in net.hidden:
        h = gelu(h @ w + b)
    w, b = net.final
    out = h @ w + b
    s = clamp_scale(out[:, : net.out_dim])
    shift = out[:, net.out_dim :]
    return s, shift


def unbound_call(net, x, cond=None):
    """One pass of the MaskedConditioner ``net``, binding nothing."""
    if x.shape[-1] != net.d:
        raise ConfigurationError(
            f"masked conditioner built for d={net.d}, got {x.shape[-1]}"
        )
    if net.cond_dim and (cond is None or cond.shape[-1] != net.cond_dim):
        raise ConfigurationError("condition vector missing or mis-sized")
    net.calls += 1
    h = x
    for (w, v, b), mask in zip(net.hidden, net._mask_tensors):
        pre = h @ (w * mask) + b
        if v is not None:
            pre = pre + cond @ v
        h = gelu(pre)
    w, b = net.final
    out = h @ (w * net._out_mask) + b
    s = clamp_scale(out[:, : net.d])
    shift = out[:, net.d :]
    return s, shift


def unbound_bind(net, cond=None):
    """Drop-in for ``MaskedConditioner.bind`` that defers all work to the
    per-pass ``unbound_call``."""
    return lambda x: unbound_call(net, x, cond)
