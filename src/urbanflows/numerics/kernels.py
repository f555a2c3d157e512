"""Neural-net building blocks on top of the tape.

``conv2d``, ``depthwise_conv2d``, ``layer_norm`` and ``gelu`` are true
primitives: one tape node each, with a hand-written backward.
``softmax_rows`` and ``global_avg_pool`` are composed from tape ops, so
their gradients are exact by construction.

``conv2d`` is lowered to one BLAS matrix product: the input's k x k windows
are copied once into an im2col matrix with one row per output pixel, which
the forward and the weight gradient each multiply once; the input gradient
is the product with the weight matrix, scattered back by k*k strided slice
adds (col2im).  ``depthwise_conv2d`` mixes no channels, so it is k*k
multiply-adds of shifted slices of the padded input, in the forward and in
both gradients.

``layer_norm`` and ``gelu`` run the same numpy operations, in the same
order, as their compositions from tape ops, so their outputs are bit for
bit the composed ones; the primitive saves the tape nodes (five per GELU,
nine per layer-norm) and the intermediates each one would keep.

``affine_step`` (the conditioner pass, ``y = x * exp(s) + b`` and the
log-det, or the inverse) and ``batchnorm_flow`` are whole flow-layer steps
as one node each, bit for bit the flow layers composed from tape ops.  A
forward takes the packed state ``[h | log-det]`` a flow stack carries, one
(B, d + 1) array, and returns ``[y | log-det + this layer's]``; its
backward passes the gradient of the log-det column on to the input's.  An
inverse maps (B, d) to (B, d).  Under ``no_grad`` a node is its forward
alone: nothing is kept for a backward.  The conditioner pass inside
``affine_step`` (dense layers with an optional condition term, GELU, the
output layer and the tanh scale clamp) is ``conditioner_mlp_arrays``, and
``_mlp_backward`` its backward.  MADE masks are constants of the node,
applied to the weights in the forward and to their gradients in the
backward.  ``conditioner_mlp_arrays`` is also each pass of an AR layer's
fixed-point inverse, with the weights masked once per bind.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

from ..errors import DimensionError
from .tape import Tensor, as_tensor, exp, grad_enabled, _accumulate, _node, _unbroadcast

__all__ = [
    "conv2d",
    "depthwise_conv2d",
    "layer_norm",
    "gelu",
    "conditioner_mlp_arrays",
    "affine_step",
    "batchnorm_flow",
    "pass_arrays",
    "softmax_rows",
    "global_avg_pool",
]


def conv2d(x, w, b, stride=1):
    """2-D convolution over NCHW input.

    stride 1 keeps the spatial size (zero "same" padding, odd kernel only);
    stride 2 tiles non-overlapping patches and requires the input size to be
    a multiple of the stride.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError("conv2d expects x (B,C,H,W) and w (O,C,k,k)")
    out_ch, in_ch, k, k2 = w.shape
    if k != k2:
        raise DimensionError("conv2d kernel must be square")
    if x.shape[1] != in_ch:
        raise DimensionError(
            f"conv2d channel mismatch: input has {x.shape[1]}, kernel expects {in_ch}"
        )
    if stride == 1:
        if k % 2 == 0:
            raise DimensionError("stride-1 conv2d needs an odd kernel size")
        pad = (k - 1) // 2
    elif stride == 2:
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise DimensionError("stride-2 conv2d needs even spatial dims")
        pad = 0
    else:
        raise DimensionError("conv2d supports stride 1 or 2 only")

    if pad:
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        xp = x.data
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    batch, h_out, w_out = windows.shape[0], windows.shape[2], windows.shape[3]
    # im2col: one row per output pixel, (channel, ki, kj) along the row
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h_out * w_out, in_ch * k * k)
    wmat = w.data.reshape(out_ch, in_ch * k * k)
    out_rows = cols @ wmat.T
    out_rows += b.data
    out_data = out_rows.reshape(batch, h_out, w_out, out_ch).transpose(0, 3, 1, 2)
    padded_shape = xp.shape

    def backward(g):
        g_rows = g.transpose(0, 2, 3, 1).reshape(-1, out_ch)
        _accumulate(b, g.sum(axis=(0, 2, 3)))
        _accumulate(w, (g_rows.T @ cols).reshape(w.shape))
        if x.requires_grad:
            # col2im: scatter each kernel tap's column block back onto the input
            g_cols = (g_rows @ wmat).reshape(batch, h_out, w_out, in_ch, k, k)
            gx = np.zeros(padded_shape)
            for ki in range(k):
                for kj in range(k):
                    gx[:, :, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride] += (
                        g_cols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
                    )
            if pad:
                gx = gx[:, :, pad:-pad, pad:-pad]
            _accumulate(x, gx)

    return _node(out_data, (x, w, b), backward)


def depthwise_conv2d(x, w, b):
    """Per-channel stride-1 same-padding convolution.

    x is (B,C,H,W); w is (C,k,k) with one kernel per channel; b is (C,).
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 3:
        raise DimensionError("depthwise_conv2d expects x (B,C,H,W) and w (C,k,k)")
    ch, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise DimensionError("depthwise kernel must be square with odd size")
    if x.shape[1] != ch:
        raise DimensionError("depthwise_conv2d channel mismatch")
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    h_out, w_out = x.shape[2], x.shape[3]
    taps = w.data[None, :, :, :, None, None]  # (1, C, k, k, 1, 1)

    def shifted(ki, kj):
        return xp[:, :, ki : ki + h_out, kj : kj + w_out]

    out_data = np.empty(x.shape)
    out_data[...] = b.data[None, :, None, None]
    tmp = np.empty(x.shape)
    for ki in range(k):
        for kj in range(k):
            out_data += np.multiply(shifted(ki, kj), taps[:, :, ki, kj], out=tmp)

    def backward(g):
        _accumulate(b, g.sum(axis=(0, 2, 3)))
        prod = np.empty(g.shape)
        gw = np.empty(w.shape)
        for ki in range(k):
            for kj in range(k):
                gw[:, ki, kj] = np.multiply(g, shifted(ki, kj), out=prod).sum(axis=(0, 2, 3))
        _accumulate(w, gw)
        if x.requires_grad:
            gx = np.zeros_like(xp)
            for ki in range(k):
                for kj in range(k):
                    gx[:, :, ki : ki + h_out, kj : kj + w_out] += np.multiply(g, taps[:, :, ki, kj], out=prod)
            _accumulate(x, gx[:, :, pad:-pad, pad:-pad])

    return _node(out_data, (x, w, b), backward)


def layer_norm(x, gamma, beta, axis=-1, eps=1e-5):
    """Normalize over one axis; gamma/beta must broadcast against x.

    With x_hat the normalized input, sigma = sqrt(var + eps) and
    g_hat = g * gamma, the input gradient is the closed form
    (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / sigma, means over
    ``axis``.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=axis, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    sigma = np.sqrt(var + eps)
    normed = centered / sigma
    out_data = normed * gamma.data + beta.data

    def backward(g):
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.shape))
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * normed, gamma.shape))
        if x.requires_grad:
            g_hat = g * gamma.data
            gx = (g_hat - g_hat.mean(axis=axis, keepdims=True)
                  - normed * (g_hat * normed).mean(axis=axis, keepdims=True))
            _accumulate(x, gx / sigma)

    return _node(out_data, (x, gamma, beta), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x):
    """Exact Gaussian error linear unit: 0.5 x (1 + erf(x/sqrt(2))).

    Its derivative is 0.5 (1 + erf(x/sqrt(2))) + x phi(x), phi the standard
    normal density; the backward reuses the forward's 1 + erf.
    """
    x = as_tensor(x)
    one_plus_erf = _erf(x.data * _INV_SQRT2) + 1.0
    out_data = (x.data * 0.5) * one_plus_erf

    def backward(g):
        phi = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        _accumulate(x, g * (0.5 * one_plus_erf + x.data * phi))

    return _node(out_data, (x,), backward)


def conditioner_mlp_arrays(x, hidden, w_out, b_out, d, clamp, saved=None):
    """One conditioner-MLP pass on ndarrays.  Each hidden layer ``(w, b,
    cv)`` computes ``gelu((h @ w + b) + cv)``, ``cv`` a condition term or
    None; the output layer gives rows ``[s | shift]``, ``s`` squashed into
    ``[-clamp, clamp]`` by ``clamp * tanh(. / clamp)``.  Returns ``(out,
    t, h)``: the ``(B, 2d)`` output, the tanh of the scale columns and the
    last hidden activation.  When ``saved`` is a list, each hidden layer
    appends ``(input, pre-activation, 1 + erf)`` to it.
    """
    h = x
    for w, b, cv in hidden:
        pre = h @ w
        pre += b
        if cv is not None:
            pre += cv
        one_plus_erf = pre * _INV_SQRT2
        _erf(one_plus_erf, out=one_plus_erf)
        one_plus_erf += 1.0
        if saved is not None:
            saved.append((h, pre, one_plus_erf))
        h = pre * 0.5
        h *= one_plus_erf
    out = h @ w_out
    out += b_out
    t = np.tanh(out[:, :d] * (1.0 / clamp))
    np.multiply(t, clamp, out=out[:, :d])
    return out, t, h


def _mlp_backward(g_pre, t, saved, h_last, weights, masks, d, need_input):
    """The backward of ``conditioner_mlp_arrays``, from the gradient of its
    output (overwritten).  Returns the input gradient (None unless
    ``need_input``) and, per weight matrix, (masked weight gradient, bias
    gradient, pre-activation gradient)."""
    g_pre[:, :d] *= 1.0 - t * t
    inputs = [*saved, (h_last, None, None)]
    grads = [None] * len(inputs)
    for i in range(len(inputs) - 1, -1, -1):
        h_in, pre, one_plus_erf = inputs[i]
        if pre is not None:  # a hidden layer: back through the GELU
            phi = np.exp(-0.5 * pre * pre) * _INV_SQRT_2PI
            g_pre = (g_pre @ weights[i + 1].T) * (0.5 * one_plus_erf + pre * phi)
        g_w = h_in.T @ g_pre
        if masks is not None:
            g_w *= masks[i]
        grads[i] = (g_w, g_pre.sum(axis=0), g_pre)
    return (g_pre @ weights[0].T if need_input else None), grads


def pass_arrays(hidden, w_out, masks):
    """Masked weight arrays (hidden, output) and hidden (w, b, _) arrays."""
    weights = [w.data for w, _, _ in hidden] + [w_out.data]
    if masks is not None:
        weights = [w * mask for w, mask in zip(weights, masks)]
    return weights, [(wd, b.data, None if c is None else c.data)
                     for wd, (_, b, c) in zip(weights, hidden)]


def affine_step(x, cond, hidden, w_out, b_out, clamp, lo, reads, masks=None,
                inverse=False):
    """One affine flow step, conditioner pass included, as one tape node.

    A forward takes the packed state ``[h | ld]`` (B, D + 1) and returns
    ``[y | ld + log-det]``: ``y = h * exp(s) + b`` from column ``lo`` on
    and h elsewhere, the log-det ``s.sum(1)``.  The inverse maps y (B, D)
    to h = (y - b) * exp(-s).  The pass reads the first ``reads`` columns,
    then ``cond``; but when the hidden layers ``(w, b, v)`` have condition
    weights ``v``, ``cond`` enters each as ``cond @ v`` instead.
    ``masks``, when given, lists one constant array per weight matrix (the
    hidden ones in order, then ``w_out``): the pass uses each weight times
    its mask, and each weight gradient is multiplied by the same mask, as
    the tape op ``w * mask`` would give.
    """
    parents = [p for p in (x, cond, *(p for layer in hidden for p in layer), w_out, b_out)
               if p is not None]
    saved = [] if grad_enabled() and any(p.requires_grad for p in parents) else None
    weights, arrays = pass_arrays(hidden, w_out, masks)
    h, c = x.data, None if cond is None else cond.data
    n = h.shape[1] - (not inverse)
    d = n - lo
    cond_in = c is not None and all(v is None for _, _, v in arrays)
    if not cond_in:
        u = h[:, :reads]
    else:
        u = c if reads == 0 else np.concatenate([h[:, :reads], c], axis=1)
    out, t, h_last = conditioner_mlp_arrays(
        u, [(w, b, None if v is None else c @ v) for w, b, v in arrays], weights[-1],
        b_out.data, d, clamp, saved)
    s, shift = out[:, :d], out[:, d:]
    res = np.empty(h.shape)
    res[:, :lo] = h[:, :lo]
    e = np.exp(-s if inverse else s)
    if inverse:
        np.multiply(h[:, lo:] - shift, e, out=res[:, lo:])
    else:
        y2 = h[:, lo:n] * e  # contiguous, then copied: faster than strided writes
        y2 += shift
        res[:, lo:n] = y2
        np.add(h[:, n], s.sum(axis=1), out=res[:, n])

    def backward(g):
        g2 = g[:, lo:n]
        g_y2 = g2 * e
        if inverse:  # x2 = (y2 - b) e: dx2/ds = -x2, dx2/db = -e
            g_out = np.concatenate([g2 * res[:, lo:], g_y2], axis=1)
            np.negative(g_out, out=g_out)
        else:  # y2 = x2 e + b and ld = sum(s)
            g_out = np.concatenate([g2 * h[:, lo:n] * e + g[:, n:], g2], axis=1)
        need_u = (x.requires_grad and reads > 0) or (cond_in and cond.requires_grad)
        g_u, grads = _mlp_backward(g_out, t, saved, h_last, weights, masks, d, need_u)
        for (w, b, v), (g_w, g_b, g_pre) in zip([*hidden, (w_out, b_out, None)], grads):
            _accumulate(w, g_w)
            _accumulate(b, g_b)
            if v is not None:
                _accumulate(v, c.T @ g_pre)
                if cond.requires_grad:
                    _accumulate(cond, g_pre @ v.data.T)
        if x.requires_grad:
            # a forward's input log-det column passes g[:, n] on unchanged
            g_x = np.concatenate([g[:, :lo], g_y2, g[:, n:]], axis=1)
            if reads:
                g_x[:, :reads] += g_u[:, :reads]
            _accumulate(x, g_x)
        if cond_in and cond.requires_grad:
            _accumulate(cond, g_u[:, reads:])

    return _node(res, parents, backward)


def batchnorm_flow(x, mu, var, eps, batch_stats=False, inverse=False):
    """Batch-norm flow y = (h - mu) / sqrt(var + eps), (1, d) ``mu`` and
    ``var``, as one tape node: a forward takes the packed state ``[h | ld]``
    (B, d + 1) and returns ``[y | ld + log-det]``; the inverse maps y (B, d)
    to h = y sqrt(var + eps) + mu.  With ``batch_stats`` they are h's own
    biased batch statistics, and the backward runs through them, the
    log-det's included."""
    std = np.power(var + eps, 0.5)
    if inverse:
        return _node(x.data * std + mu, (x,), lambda g: _accumulate(x, g * std))
    d = x.shape[1] - 1
    res = np.empty(x.shape)
    np.divide(x.data[:, :d] - mu, std, out=res[:, :d])
    np.add(x.data[:, d], np.log(var + eps).sum() * (-0.5), out=res[:, d])

    def backward(g):
        g_y = g[:, :d]
        if batch_stats:
            # y is x_hat, and d ld / d x = -x_hat / (B std) in every row
            x_hat = res[:, :d]
            coupled = (g_y * x_hat).mean(axis=0) + g[:, d].sum() / g.shape[0]
            g_y = g_y - g_y.mean(axis=0) - x_hat * coupled
        # the input log-det column passes g[:, d] on unchanged
        _accumulate(x, np.concatenate([g_y / std, g[:, d:]], axis=1))

    return _node(res, (x,), backward)


def softmax_rows(x):
    """Softmax over the last axis, shifted by the detached row max."""
    shift = Tensor(x.data.max(axis=-1, keepdims=True))
    e = exp(x - shift)
    return e / e.sum(axis=-1, keepdims=True)


def global_avg_pool(x):
    """Mean over the spatial axes of an NCHW tensor, giving (B, C)."""
    if x.ndim != 4:
        raise DimensionError("global_avg_pool expects (B,C,H,W)")
    return x.mean(axis=(2, 3))
