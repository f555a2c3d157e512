"""The geographic extractor composed from NCHW tape ops: the oracle the
fused channels-last one in ``urbanflows.fusion`` is tested against, and
the kernels only it calls.

``conv2d`` is lowered to one BLAS matrix product: the input's k x k windows
are copied once into an im2col matrix with one row per output pixel, which
the forward and the weight gradient each multiply once; the input gradient
is the product with the weight matrix, scattered back by k*k strided slice
adds (col2im).  ``depthwise_conv2d`` mixes no channels, so it is k*k
multiply-adds of shifted slices of the padded input, in the forward and in
both gradients.  ``layer_norm`` (over any one axis) and ``gelu`` run the
same numpy operations, in the same order, as their compositions from tape
ops in ``composed_reference``, so their outputs are bit for bit the
composed ones.  Each is one tape node with a hand-written backward;
``conv_reference`` and ``composed_reference`` hold what they are tested
against.

``composed_forward(geo, x, mode, rng)`` is ``GeoExtractor.forward`` as it
was before each ConvNeXt layer became one node: it reads ``geo``'s
parameters, keeps activations NCHW and composes each layer from about 14
tape nodes.  It draws the drop-path keep masks from ``rng`` in the same
order as the fused extractor, so both see the same masks.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

from urbanflows.errors import ConfigurationError, DimensionError, check_mode
from urbanflows.numerics import Tensor, as_tensor
from urbanflows.numerics.tape import _accumulate, _node, _unbroadcast


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


def global_avg_pool(x):
    """Mean over the spatial axes of an NCHW tensor, giving (B, C)."""
    if x.ndim != 4:
        raise DimensionError("global_avg_pool expects (B,C,H,W)")
    return x.mean(axis=(2, 3))


def _channel_ln(h, ln):
    gamma, beta = ln
    c = gamma.shape[0]
    return layer_norm(h, gamma.reshape(1, c, 1, 1), beta.reshape(1, c, 1, 1), axis=1)


def _convnext(geo, h, p, mode, rng):
    branch = depthwise_conv2d(h, p["dw_w"], p["dw_b"])
    branch = _channel_ln(branch, p["ln"])
    t = branch.transpose((0, 2, 3, 1))
    t = gelu(t @ p["up_w"] + p["up_b"])
    t = t @ p["down_w"] + p["down_b"]
    branch = t.transpose((0, 3, 1, 2))
    c = p["ls"].shape[0]
    branch = branch * p["ls"].reshape(1, c, 1, 1)
    if mode == "train" and geo.drop_path > 0.0:
        if rng is None:
            raise ConfigurationError("train-mode drop-path needs an rng")
        keep = (rng.random(h.shape[0]) >= geo.drop_path).astype(np.float64)
        keep = keep / (1.0 - geo.drop_path)
        branch = branch * Tensor(keep.reshape(-1, 1, 1, 1))
    return h + branch


def composed_forward(geo, x, mode="eval", rng=None):
    """x is (B, 1, N, N) with values already rescaled to [0, 1]."""
    check_mode(mode)
    if x.ndim != 4:
        raise DimensionError("geo extractor expects (B,1,N,N)")
    size = x.shape[2]
    if size >> (geo.n_cx - 1) < 1 or size % (1 << (geo.n_cx - 1)) != 0:
        raise ConfigurationError(
            f"grid side {size} incompatible with {geo.n_cx - 1} down-samples"
        )
    h = conv2d(x, geo.stem_w, geo.stem_b, stride=1)
    h = _channel_ln(h, geo.stem_ln)
    for i, block in enumerate(geo.blocks):
        h = _convnext(geo, h, block, mode, rng)
        if i < len(geo.downs):
            down = geo.downs[i]
            h = _channel_ln(h, down["ln"])
            h = conv2d(h, down["w"], down["b"], stride=2)
    pooled = global_avg_pool(h)
    pooled = layer_norm(pooled, geo.head_ln[0], geo.head_ln[1], axis=-1)
    return pooled @ geo.head_w + geo.head_b
