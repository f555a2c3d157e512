"""Neural-net building blocks on top of the tape.

``conv2d`` and ``depthwise_conv2d`` are true primitives with hand-written
backwards; everything else is composed from tape ops so its gradients are
exact by construction.

``conv2d`` is lowered to one BLAS matrix product: the input's k x k windows
are copied once into an im2col matrix with one row per output pixel, which
the forward and the weight gradient each multiply once; the input gradient
is the product with the weight matrix, scattered back by k*k strided slice
adds (col2im).  ``depthwise_conv2d`` mixes no channels, so it is k*k
multiply-adds of shifted slices of the padded input, in the forward and in
both gradients.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DimensionError
from .tape import Tensor, as_tensor, erf, exp, sqrt, _accumulate, _node

__all__ = [
    "conv2d",
    "depthwise_conv2d",
    "linear",
    "layer_norm",
    "gelu",
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


def linear(x, weight, bias=None):
    """Affine map on the last axis: x @ weight (+ bias)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


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
