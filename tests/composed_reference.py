"""Reference implementations the fused GELU, layer-norm and the
conditioner-MLP primitive are tested against.

``gelu``, ``layer_norm`` and ``clamp_scale`` are composed from tape ops, so
their gradients follow from the tape's elementary rules.  The two
conditioner passes are built from them, one tape op at a time, and count
themselves in ``net.calls`` as the ``Conditioner`` does: ``composed_call``
is a dense pass and has the signature of ``Conditioner.__call__``;
``unbound_call`` is the MADE-masked pass, which multiplies each weight by
its mask from ``net.masks`` as a tape op and rebuilds every masked weight
and condition product on each call, and ``unbound_bind`` has the signature
of ``Conditioner.bind``.  A test can monkeypatch either onto the class and
run a layer or a whole stack, forward or inverse, through the reference.
"""

import numpy as np

from urbanflows.errors import ConfigurationError
from urbanflows.flow_layers import CLAMP
from urbanflows.numerics import Tensor, erf, sqrt, tanh


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
    ``net.calls`` as the conditioner itself does."""
    net.calls += 1
    h = x
    for w, b, _ in net.hidden:
        h = gelu(h @ w + b)
    w, b = net.final
    out = h @ w + b
    s = clamp_scale(out[:, : net.d])
    shift = out[:, net.d :]
    return s, shift


def unbound_call(net, x, cond=None):
    """One pass of the MADE-masked ``Conditioner`` ``net``, binding
    nothing: each masked weight ``w * mask`` (the mask read from
    ``net.masks``) and each condition term is a tape op of this pass."""
    if x.shape[-1] != net.in_dim:
        raise ConfigurationError(
            f"conditioner built for input width {net.in_dim}, got {x.shape[-1]}"
        )
    if net.cond_dim and (cond is None or cond.shape[-1] != net.cond_dim):
        raise ConfigurationError("condition vector missing or mis-sized")
    net.calls += 1
    h = x
    for (w, b, v), mask in zip(net.hidden, net.masks.hidden_masks):
        pre = h @ (w * Tensor(mask)) + b
        if v is not None:
            pre = pre + cond @ v
        h = gelu(pre)
    w, b = net.final
    out = h @ (w * Tensor(net.masks.sb_out_mask)) + b
    s = clamp_scale(out[:, : net.d])
    shift = out[:, net.d :]
    return s, shift


def unbound_bind(net, cond=None):
    """Drop-in for ``Conditioner.bind`` on a masked conditioner that defers
    all work to the per-pass ``unbound_call``."""
    return lambda x: unbound_call(net, x, cond)
