"""Neural-net building blocks on top of the tape.

``conv2d_nhwc``, ``layer_norm`` and ``convnext_layer`` are true
primitives on channels-last (B, H, W, C) activations: one tape node each,
with a hand-written backward.  ``softmax_rows`` is composed from tape ops,
so its gradient is exact by construction.

``conv2d_nhwc`` is lowered to one BLAS matrix product: the input's k x k
windows are copied once into an im2col matrix, one row per output pixel and
(ki, kj, channel) along the row, which the forward and the weight gradient
each multiply once; the input gradient is the product with the weight
matrix, scattered back by k*k strided slice adds (col2im).  ``layer_norm``
normalizes the last axis and takes its means as products with a 1/C column.

``convnext_layer`` is a whole ConvNeXt layer: depthwise conv, layer-norm,
1x1 expand, exact GELU, 1x1 back, LayerScale, drop-path and residual.  The
depthwise conv is k*k multiply-adds of shifted windows of (B, H, W*C) rows.
The norm's gamma and beta fold into the expand weights and LayerScale into
the back ones, so the rest is two GEMMs, the norm and the GELU, and the
backward is GEMMs over (rows, C) and (rows, 4C) arrays.  Of the (rows, 4C)
arrays a taped layer keeps GELU's output and slope, not the pre-activation
and its CDF.  Under ``no_grad`` they are made a block of rows at a time.

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
``_mlp_backward`` its backward.  A taped ``affine_step`` keeps each hidden
layer's input and GELU slope, the last hidden activation and the tanh of
the scale columns; its backward rebuilds exp(+-s) from that tanh and the
masked weights from the parameters (``pass_arrays``), the same operations
on the same operands, so it gets the forward's bits.  MADE masks are
constants of the node: each pass multiplies the weights by them, and the
backward the weight gradients.  ``conditioner_mlp_arrays`` is also each
pass of an AR layer's fixed-point inverse, with the weights masked once
per bind.

GELU's ``erf`` is scipy's own ufunc, taken from the compiled module that
defines it (``_load_erf``), so that importing the package does not run
``scipy.special``'s package ``__init__``: that would double the modules
``import urbanflows.cli`` loads and add 20 MiB to it, none of which the
package uses.
"""

from __future__ import annotations

import importlib.util
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DimensionError
from .tape import Tensor, as_tensor, exp, grad_enabled, _accumulate, _node

__all__ = [
    "conv2d_nhwc",
    "layer_norm",
    "convnext_layer",
    "conditioner_mlp_arrays",
    "affine_step",
    "batchnorm_flow",
    "pass_arrays",
    "softmax_rows",
]


def conv2d_nhwc(x, w, b, stride=1):
    """2-D convolution over channels-last input: x (B, H, W, C), w (O, C,
    k, k) as its parameter is stored, b (O,); the output is (B, H', W', O).

    stride 1 keeps the spatial size (zero "same" padding, odd kernel only);
    stride 2 tiles non-overlapping patches and requires even spatial dims.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError("conv2d_nhwc expects x (B,H,W,C) and w (O,C,k,k)")
    out_ch, in_ch, k, k2 = w.shape
    if k != k2:
        raise DimensionError("conv2d_nhwc kernel must be square")
    if x.shape[3] != in_ch:
        raise DimensionError(
            f"conv2d_nhwc channel mismatch: input has {x.shape[3]}, kernel expects {in_ch}"
        )
    if stride == 1:
        if k % 2 == 0:
            raise DimensionError("stride-1 conv2d_nhwc needs an odd kernel size")
        pad = (k - 1) // 2
    elif stride == 2:
        if x.shape[1] % 2 or x.shape[2] % 2:
            raise DimensionError("stride-2 conv2d_nhwc needs even spatial dims")
        pad = 0
    else:
        raise DimensionError("conv2d_nhwc supports stride 1 or 2 only")

    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x.data
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    batch, h_out, w_out = windows.shape[:3]
    # im2col: one row per output pixel, (ki, kj, channel) along the row
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * in_ch)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(out_ch, -1)
    out_rows = cols @ wmat.T
    out_rows += b.data

    def backward(g):
        g_rows = g.reshape(-1, out_ch)
        _accumulate(b, g_rows.sum(axis=0))
        _accumulate(w, (g_rows.T @ cols).reshape(out_ch, k, k, in_ch).transpose(0, 3, 1, 2))
        if x.requires_grad:
            # col2im: scatter each kernel tap's column block back onto the input
            g_cols = (g_rows @ wmat).reshape(batch, h_out, w_out, k, k, in_ch)
            gx = np.zeros(xp.shape)
            for ki in range(k):
                for kj in range(k):
                    gx[:, ki : ki + stride * h_out : stride, kj : kj + stride * w_out : stride] += (
                        g_cols[:, :, :, ki, kj]
                    )
            _accumulate(x, gx[:, pad : pad + x.shape[1], pad : pad + x.shape[2]])

    return _node(out_rows.reshape(batch, h_out, w_out, out_ch), (x, w, b), backward)


# the variance offset of every layer-norm
LN_EPS = 1e-5


def _normalize_rows(a, out=None):
    """Each row of the 2-D ``a`` less its mean, over sigma = sqrt(its
    variance + LN_EPS): returns (normed, sigma (R, 1)).  The means are
    products with a 1/C column, so each is one matrix-vector product."""
    mean_col = np.full((a.shape[1], 1), 1.0 / a.shape[1])
    normed = np.subtract(a, a @ mean_col, out=out)
    sigma = np.multiply(normed, normed) @ mean_col
    sigma += LN_EPS
    np.sqrt(sigma, out=sigma)
    normed /= sigma
    return normed, sigma


def _normalize_rows_grad(g, normed, sigma):
    """The input gradient of ``_normalize_rows`` from that of its normed
    rows, overwriting ``g``: (g - mean(g) - normed mean(g normed)) / sigma,
    means along each row."""
    mean_col = np.full((g.shape[1], 1), 1.0 / g.shape[1])
    prod = g * normed
    g -= g @ mean_col
    g -= np.multiply(normed, prod @ mean_col, out=prod)
    g /= sigma
    return g


def layer_norm(x, gamma, beta):
    """Normalize over the last axis with variance + ``LN_EPS``; gamma and
    beta are (C,)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c = x.shape[-1]
    normed, sigma = _normalize_rows(x.data.reshape(-1, c))
    out = normed * gamma.data
    out += beta.data

    def backward(g):
        g = g.reshape(-1, c)
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, np.einsum("rc,rc->c", g, normed))
        if x.requires_grad:
            _accumulate(x, _normalize_rows_grad(g * gamma.data, normed, sigma).reshape(x.shape))

    return _node(out.reshape(x.shape), (x, gamma, beta), backward)


def _load_erf():
    """``scipy.special.erf``, without running ``scipy/special/__init__.py``.

    The ufunc lives in the extension ``scipy.special._ufuncs``.  Importing
    it needs its package in ``sys.modules``, so an unexecuted module stands
    in for ``scipy.special`` just for that import.  The extension stays
    cached, so a later ``import scipy.special`` runs the real ``__init__``,
    which names this very ufunc.
    """
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"].erf
    sys.modules["scipy.special"] = importlib.util.module_from_spec(
        importlib.util.find_spec("scipy.special"))
    try:
        from scipy.special._ufuncs import erf
    finally:
        del sys.modules["scipy.special"]
    return erf


_erf = _load_erf()
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gelu(pre, out=None):
    """Exact GELU of ``pre``: returns (pre * cdf, cdf), cdf = 0.5 (1 +
    erf(pre / sqrt(2))) the standard normal CDF.  ``out`` may be ``pre``
    itself when the caller no longer needs it."""
    cdf = pre * _INV_SQRT2
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(pre, cdf, out=out), cdf


def _gelu_slope(pre, cdf):
    """GELU's derivative cdf + pre phi(pre), phi the standard normal
    density."""
    slope = np.multiply(pre, pre)
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= pre
    slope += cdf
    return slope


def _dw_shift(t, k, c, h, wc):
    """Index tuples (dst, src) of tap ``t`` of a same-padded k x k
    depthwise conv on (B, H, W*C) arrays: the tap adds ``x[src]`` times its
    weights into ``out[dst]``, and the padding, being zero, adds nothing."""
    di, dj = t // k - k // 2, (t % k - k // 2) * c
    return ((slice(None), slice(max(-di, 0), h - max(di, 0)), slice(max(-dj, 0), wc - max(dj, 0))),
            (slice(None), slice(max(di, 0), h - max(-di, 0)), slice(max(dj, 0), wc - max(-dj, 0))))


_CONVNEXT_ROWS = 512


def convnext_layer(x, dw_w, dw_b, gamma, beta, up_w, up_b, pw_w, pw_b, ls, keep=None):
    """One ConvNeXt layer on channels-last x (B, H, W, C) as one tape node.

    Depthwise k x k conv ``dw_w`` (C, k, k) + ``dw_b`` -> layer-norm over
    the channels (``gamma``, ``beta``) -> 1x1 expand ``up_w`` (C, 4C) +
    ``up_b`` -> exact GELU -> 1x1 back ``pw_w`` (4C, C) + ``pw_b`` ->
    LayerScale ``ls`` -> times ``keep`` -> plus x.  ``keep``, when given, is
    a (B,) array of drop-path factors: the keep mask over the keep
    probability.
    """
    x = as_tensor(x)
    params = (dw_w, dw_b, gamma, beta, up_w, up_b, pw_w, pw_b, ls)
    tracked = grad_enabled() and any(p.requires_grad for p in (x, *params))
    batch, h, w, c = x.shape
    k = dw_w.shape[1]
    wc = w * c
    rows = batch * h * w
    # the depthwise conv on (B, H, W*C) rows: each tap is a shifted window
    # of the input times the tap's weights tiled along the row
    xd = x.data.reshape(batch, h, wc)
    taps = np.tile(dw_w.data.reshape(c, k * k).T, (1, w))
    dw = np.tile(dw_b.data, (batch, h, w))
    tmp = np.empty_like(dw)
    for t in range(k * k):
        dst, src = _dw_shift(t, k, c, h, wc)
        dw[dst] += np.multiply(xd[src], taps[t, dst[2]], out=tmp[dst])
    # the layer-norm in place; gamma and beta fold into the expand
    # weights, ls into the back ones
    dw = dw.reshape(rows, c)
    normed, sigma = _normalize_rows(dw, out=dw)
    w_up = gamma.data[:, None] * up_w.data
    b_up = beta.data @ up_w.data + up_b.data
    w_back = pw_w.data * ls.data
    out = tmp.reshape(rows, c)
    # without a backward, the (rows, 4C) arrays are made a block of rows at
    # a time, which keeps them small and in cache
    step = rows if tracked else _CONVNEXT_ROWS
    for lo in range(0, rows, step):
        pre = normed[lo : lo + step] @ w_up
        pre += b_up
        act, cdf = _gelu(pre, out=None if tracked else pre)
        np.matmul(act, w_back, out=out[lo : lo + step])
    # the backward keeps act and GELU's slope; pre and cdf die here
    slope = _gelu_slope(pre, cdf) if tracked else None
    out += pw_b.data * ls.data
    out = out.reshape(x.shape)
    if keep is not None:
        out *= keep[:, None, None, None]
    out += x.data

    def backward(g):
        g_branch = g.reshape(rows, c)
        if keep is not None:
            g_branch = (g * keep[:, None, None, None]).reshape(rows, c)
        # back and LayerScale: branch = (act @ pw_w + pw_b) * ls
        g_back_b = g_branch.sum(axis=0)
        act_g = act.T @ g_branch
        _accumulate(ls, (pw_w.data * act_g).sum(axis=0) + pw_b.data * g_back_b)
        _accumulate(pw_w, act_g * ls.data)
        _accumulate(pw_b, g_back_b * ls.data)
        g_pre = g_branch @ w_back.T
        g_pre *= slope
        # expand and the norm's affine: pre = (normed gamma + beta) @ up_w + up_b
        g_up_b = g_pre.sum(axis=0)
        normed_g = normed.T @ g_pre
        _accumulate(up_w, gamma.data[:, None] * normed_g + np.outer(beta.data, g_up_b))
        _accumulate(up_b, g_up_b)
        _accumulate(gamma, (up_w.data * normed_g).sum(axis=1))
        _accumulate(beta, up_w.data @ g_up_b)
        g_dw = _normalize_rows_grad(g_pre @ w_up.T, normed, sigma).reshape(batch, h, wc)
        _accumulate(dw_b, g_dw.sum(axis=(0, 1)).reshape(w, c).sum(axis=0))
        prod = np.empty_like(g_dw)
        g_taps = np.empty((k * k, c))
        gx = g.reshape(batch, h, wc).copy() if x.requires_grad else None
        for t in range(k * k):
            dst, src = _dw_shift(t, k, c, h, wc)
            np.multiply(g_dw[dst], xd[src], out=prod[dst])
            g_taps[t] = prod[dst].sum(axis=(0, 1)).reshape(-1, c).sum(axis=0)
            if gx is not None:
                gx[src] += np.multiply(g_dw[dst], taps[t, dst[2]], out=prod[dst])
        _accumulate(dw_w, g_taps.T.reshape(c, k, k))
        if gx is not None:
            _accumulate(x, gx.reshape(x.shape))

    return _node(out, (x, *params), backward)


def conditioner_mlp_arrays(x, hidden, w_out, b_out, d, clamp, saved=None):
    """One conditioner-MLP pass on ndarrays.  Each hidden layer ``(w, b,
    cv)`` computes ``gelu((h @ w + b) + cv)``, ``cv`` a condition term or
    None; the output layer gives rows ``[s | shift]``, ``s`` squashed into
    ``[-clamp, clamp]`` by ``clamp * tanh(. / clamp)``.  Returns ``(out,
    t, h)``: the ``(B, 2d)`` output, the tanh of the scale columns and the
    last hidden activation.  When ``saved`` is a list, each hidden layer
    appends ``(input, GELU slope)`` to it, all its backward needs: the
    pre-activation and its CDF are not kept.
    """
    h = x
    for w, b, cv in hidden:
        pre = h @ w
        pre += b
        if cv is not None:
            pre += cv
        h_in = h
        h, cdf = _gelu(pre)
        if saved is not None:
            saved.append((h_in, _gelu_slope(pre, cdf)))
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
    inputs = [*saved, (h_last, None)]
    grads = [None] * len(inputs)
    for i in range(len(inputs) - 1, -1, -1):
        h_in, slope = inputs[i]
        if slope is not None:  # a hidden layer: back through the GELU
            g_pre = (g_pre @ weights[i + 1].T) * slope
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

    A taped node keeps what ``conditioner_mlp_arrays`` saves, the last
    hidden activation and t, the tanh of the scale columns.  Its backward
    rebuilds exp(+-s) from s = clamp t and the masked weights from the
    parameters' current values, which no update may move before it runs.
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
        # exp(+-s) and the masked weights are rebuilt, not kept: s = clamp t
        # is the pass's own last step, and the parameters have not moved
        s = np.multiply(t, clamp)
        e = np.exp(-s if inverse else s)
        weights = pass_arrays(hidden, w_out, masks)[0]
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
