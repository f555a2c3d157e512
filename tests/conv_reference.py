"""Reference convolutions the shipped kernels are tested against.

``conv2d`` and ``depthwise_conv2d`` here are the einsum formulations over a
6-D strided ``sliding_window_view``: each output element is written as one
contraction of its k x k window, so they read directly off the definition
of a convolution.  Their signatures and checks match the kernels in
``urbanflows.numerics.kernels``, so a test can call both on the same inputs
and compare the outputs and all three gradients.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from urbanflows.errors import DimensionError
from urbanflows.numerics.tape import _accumulate, _node, as_tensor


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
    out_data = np.einsum("bchwij,ocij->bohw", windows, w.data) + b.data[None, :, None, None]
    h_out, w_out = out_data.shape[2], out_data.shape[3]

    def backward(g):
        _accumulate(b, g.sum(axis=(0, 2, 3)))
        _accumulate(w, np.einsum("bohw,bchwij->ocij", g, windows))
        if x.requires_grad:
            gx = np.zeros_like(xp)
            for ki in range(k):
                for kj in range(k):
                    gx[:, :, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride] += np.einsum(
                        "bohw,oc->bchw", g, w.data[:, :, ki, kj]
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
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))
    out_data = np.einsum("bchwij,cij->bchw", windows, w.data) + b.data[None, :, None, None]
    h_out, w_out = out_data.shape[2], out_data.shape[3]

    def backward(g):
        _accumulate(b, g.sum(axis=(0, 2, 3)))
        _accumulate(w, np.einsum("bchw,bchwij->cij", g, windows))
        if x.requires_grad:
            gx = np.zeros_like(xp)
            for ki in range(k):
                for kj in range(k):
                    gx[:, :, ki : ki + h_out, kj : kj + w_out] += g * w.data[None, :, ki, kj, None, None]
            _accumulate(x, gx[:, :, pad:-pad, pad:-pad])

    return _node(out_data, (x, w, b), backward)
