"""Gradient-correctness tests for the reverse-mode tape and kernels.

Every differentiable op is checked against central finite differences via
the oracle helpers; the tolerances here gate everything downstream, since
all flow and fusion gradients are built from these primitives.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import composed_reference
import conv_reference
from adam_reference import CopyingAdam, ReferenceAdam
from composed_reference import concat, log, sqrt, tanh
from conftest import add_param
import geo_reference
from geo_reference import conv2d, depthwise_conv2d, gelu, global_avg_pool
from urbanflows.checkpoint import load_checkpoint, save_checkpoint
from urbanflows.errors import (
    CheckpointManifestError,
    CheckpointValueError,
    DimensionError,
    OracleError,
    TrainingFault,
)
from urbanflows.flow_layers import MaskedARLayer, build_made_masks
from urbanflows.numerics import (
    Adam,
    ParameterStore,
    Tensor,
    affine_step,
    append_zero_column,
    batchnorm_flow,
    clip,
    conv2d_nhwc,
    convnext_layer,
    exp,
    layer_norm,
    max_relative_error,
    no_grad,
    normal,
    numerical_gradient,
    permute_columns,
    softmax_rows,
)

TOL = 1e-6


def check_scalar_grad(fn, *arrays, tol=TOL):
    """fn maps Tensors to a scalar Tensor; compare grads to central FD."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward()
    for i, t in enumerate(tensors):
        def scalar(x, i=i):
            probe = [Tensor(a.copy()) for a in arrays]
            probe[i] = Tensor(x)
            return float(fn(*probe).data)

        num = numerical_gradient(scalar, arrays[i])
        err = max_relative_error(t.grad, num)
        assert err < tol, f"arg {i}: rel err {err:.3e}"


def test_arithmetic_chain_gradients(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0

    def fn(x, y):
        z = (x * y + x / y - y) * 0.5
        return (z * z).sum()

    check_scalar_grad(fn, a, b)


def test_broadcast_gradients(rng):
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5,))
    check_scalar_grad(lambda x, y: ((x + y) * (x * y)).sum(), a, b)


def test_matmul_gradients(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_scalar_grad(lambda x, y: (x @ y).sum(), a, b)
    # batched
    a3 = rng.normal(size=(2, 3, 4))
    b3 = rng.normal(size=(2, 4, 2))
    check_scalar_grad(lambda x, y: ((x @ y) * (x @ y)).sum(), a3, b3)
    # a stack of rows against a 2-D b, as the pointwise convolutions run
    check_scalar_grad(lambda x, y: ((x @ y) * (x @ y)).sum(), a3, b)
    check_scalar_grad(lambda x, y: ((x @ y) * (x @ y)).sum(), rng.normal(size=(2, 3, 2, 4)), b)


@pytest.mark.parametrize("shape,contiguous", [((5, 7, 6), True), ((3, 4, 5, 6), True),
                                              ((3, 4, 5, 6), False), ((7, 6), True)])
def test_matmul_backward_with_2d_b_matches_batched_products(rng, shape, contiguous):
    """With a 2-D ``b`` the backward folds a's leading axes into one 2-D
    GEMM each way.  Both gradients agree within atol 1e-12 with the batched
    products, b's summed over the stack by ``_unbroadcast``."""
    if contiguous:
        data = rng.normal(size=shape)
    else:  # a channels-last view of a channels-first array
        data = np.moveaxis(rng.normal(size=(shape[0], shape[-1], *shape[1:-1])), 1, -1)
    a = Tensor(data, requires_grad=True)
    b = Tensor(rng.normal(size=(shape[-1], 3)), requires_grad=True)
    g = rng.normal(size=shape[:-1] + (3,))
    (a @ b).backward(g)
    want_b = np.swapaxes(a.data, -1, -2) @ g
    while want_b.ndim > 2:
        want_b = want_b.sum(axis=0)
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, want_b, rtol=0, atol=1e-12)


def test_elementwise_unary_gradients(rng):
    x = rng.normal(size=(2, 7))
    check_scalar_grad(lambda t: exp(t).sum(), x)
    check_scalar_grad(lambda t: log(t * t + 1.0).sum(), x)
    check_scalar_grad(lambda t: tanh(t).sum(), x)
    check_scalar_grad(lambda t: sqrt(t * t + 0.5).sum(), x)
    check_scalar_grad(lambda t: gelu(t).sum(), x)


def test_gelu_value():
    # erf form: gelu(1) = 0.5 * (1 + erf(1/sqrt(2)))
    out = gelu(Tensor(np.array([1.0])))
    assert abs(float(out.data[0]) - 0.8413447460685429) < 1e-15
    out0 = gelu(Tensor(np.array([0.0])))
    assert float(out0.data[0]) == 0.0


SRC = Path(__file__).resolve().parent.parent / "src"

ERF_IMPORTS = {
    # importing the package runs no scipy.special __init__
    "cli-alone": """
import sys
import urbanflows.cli
assert "scipy.special" not in sys.modules, "scipy.special was imported"
""",
    # the real package still imports afterwards and names the same ufunc
    "scipy-special-after": """
import urbanflows.cli
from urbanflows.numerics import kernels
import scipy.special
assert kernels._erf is scipy.special.erf
assert scipy.special.gamma(5.0) == 24.0  # the whole package is there
""",
    "scipy-special-first": """
import scipy.special
from urbanflows.numerics import kernels
assert kernels._erf is scipy.special.erf
""",
}


@pytest.mark.parametrize("case", sorted(ERF_IMPORTS))
def test_gelu_erf_is_scipys_ufunc_without_scipy_special(case):
    """``kernels`` takes scipy's ``erf`` from its compiled module.  Each case
    runs in a new interpreter, where pytest's own imports cannot have loaded
    ``scipy.special`` already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", ERF_IMPORTS[case]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_reshape_transpose_concat_getitem(rng):
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 2))
    check_scalar_grad(lambda a: (a.reshape(2, 6) * 2.0).sum(), x)
    check_scalar_grad(lambda a: exp(a.transpose((1, 0))).sum(), x)
    check_scalar_grad(lambda a, b: tanh(concat([a, b], axis=1)).sum(), x, y)
    check_scalar_grad(lambda a: (a[:, 1:3] ** 2).sum(), x)
    # a repeated advanced index must sum the gradient of each repeat
    check_scalar_grad(lambda a: (a[[0, 0, 2]] ** 2).sum(), x)


def test_permute_columns_gradient(rng):
    x = rng.normal(size=(4, 6))
    perm = np.array([3, 1, 5, 0, 2, 4])
    check_scalar_grad(lambda a: (permute_columns(a, perm) * np.arange(6.0)).sum(), x)
    # distinct columns picked, as a flow stack splits off its latent
    check_scalar_grad(lambda a: (permute_columns(a, perm[:4]) * np.arange(4.0)).sum(), x)
    # permutation round trip
    t = Tensor(x)
    back = permute_columns(permute_columns(t, perm), np.argsort(perm))
    assert np.array_equal(back.data, x)


def test_append_zero_column_gradient(rng):
    x = rng.normal(size=(4, 6))
    packed = append_zero_column(Tensor(x))
    assert packed.shape == (4, 7)
    assert np.array_equal(packed.data[:, :6], x) and np.all(packed.data[:, 6] == 0.0)
    weight = rng.normal(size=(4, 7))
    check_scalar_grad(lambda a: (append_zero_column(a) ** 2 * weight).sum(), x)


def test_sum_mean_axis_gradients(rng):
    x = rng.normal(size=(3, 5))
    check_scalar_grad(lambda a: tanh(a.sum(axis=1)).sum(), x)
    check_scalar_grad(lambda a: exp(a.mean(axis=0)).sum(), x)
    check_scalar_grad(lambda a: a.mean(), x)


def test_mean_over_tuple_axes(rng):
    x = rng.normal(size=(2, 3, 4))
    weights = rng.normal(size=(3,))
    for keepdims in (False, True):
        out = Tensor(x).mean(axis=(0, 2), keepdims=keepdims)
        np.testing.assert_array_equal(out.data, x.mean(axis=(0, 2), keepdims=keepdims))
    check_scalar_grad(lambda a: (a.mean(axis=(0, -1)) * weights).sum(), x)
    check_scalar_grad(lambda a: exp(a.mean(axis=(1, 2), keepdims=True)).sum(), x)


def test_clip_gradient_masks_boundaries(rng):
    x = np.array([[-2.0, -0.5, 0.3, 1.7]])
    t = Tensor(x, requires_grad=True)
    clip(t, -1.0, 1.0).sum().backward()
    assert np.array_equal(t.grad, np.array([[0.0, 1.0, 1.0, 0.0]]))


def test_conv2d_gradients(rng):
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(4,))
    check_scalar_grad(lambda a, k, c: (conv2d(a, k, c) ** 2).sum(), x, w, b,
                      tol=1e-5)
    # stride-2 downsample path
    w2 = rng.normal(size=(4, 3, 2, 2))
    check_scalar_grad(
        lambda a, k, c: (conv2d(a, k, c, stride=2) ** 2).sum(), x, w2, b,
        tol=1e-5)


def test_depthwise_conv2d_gradients(rng):
    x = rng.normal(size=(2, 4, 5, 5))
    w = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=(4,))
    check_scalar_grad(lambda a, k, c: (depthwise_conv2d(a, k, c) ** 2).sum(),
                      x, w, b, tol=1e-5)


def _output_and_grads(kernel, arrays, g, **kw):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = kernel(*tensors, **kw)
    (out * Tensor(g)).sum().backward()
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("batch", [1, 37])
@pytest.mark.parametrize("name,k,stride", [
    ("conv2d", 3, 1), ("conv2d", 5, 1), ("conv2d", 2, 2),
    ("depthwise_conv2d", 3, 1), ("depthwise_conv2d", 5, 1),
])
def test_conv_kernels_match_einsum_reference(rng, name, k, stride, batch):
    c, o, size = 3, 4, 6
    x = rng.normal(size=(batch, c, size, size))
    if name == "conv2d":
        w, b = rng.normal(size=(o, c, k, k)), rng.normal(size=(o,))
        g = rng.normal(size=(batch, o, size // stride, size // stride))
        kw = {"stride": stride}
    else:
        w, b = rng.normal(size=(c, k, k)), rng.normal(size=(c,))
        g = rng.normal(size=(batch, c, size, size))
        kw = {}
    shipped = {"conv2d": conv2d, "depthwise_conv2d": depthwise_conv2d}[name]
    got = _output_and_grads(shipped, (x, w, b), g, **kw)
    want = _output_and_grads(getattr(conv_reference, name), (x, w, b), g, **kw)
    for part, a, r in zip(("out", "x", "w", "b"), got, want):
        assert a.shape == r.shape, part
        assert np.allclose(a, r, rtol=0.0, atol=1e-12), part


def _nhwc(kernel):
    """``kernel`` on channels-last input, seen from NCHW input and output."""
    return lambda x, *args, **kw: kernel(x.transpose((0, 2, 3, 1)), *args, **kw).transpose(
        (0, 3, 1, 2))


@pytest.mark.parametrize("batch", [1, 37])
@pytest.mark.parametrize("k,stride", [(3, 1), (5, 1), (2, 2)])
def test_conv2d_nhwc_matches_einsum_reference(rng, k, stride, batch):
    """The channels-last im2col convolution gives the NCHW einsum
    reference's output and all three gradients within atol 1e-12."""
    c, o, h, w = 3, 4, 6, 4
    x = rng.normal(size=(batch, c, h, w))
    wt, b = rng.normal(size=(o, c, k, k)), rng.normal(size=(o,))
    g = rng.normal(size=(batch, o, h // stride, w // stride))
    got = _output_and_grads(_nhwc(conv2d_nhwc), (x, wt, b), g, stride=stride)
    want = _output_and_grads(conv_reference.conv2d, (x, wt, b), g, stride=stride)
    for part, a, r in zip(("out", "x", "w", "b"), got, want):
        assert a.shape == r.shape, part
        assert np.allclose(a, r, rtol=0.0, atol=1e-12), part


def test_conv2d_nhwc_rejects_bad_shapes(rng):
    x = Tensor(rng.normal(size=(2, 4, 4, 3)))
    for w, stride in [((5, 2, 3, 3), 1), ((5, 3, 2, 3), 1), ((5, 3, 2, 2), 1),
                      ((5, 3, 3, 3), 3)]:
        with pytest.raises(DimensionError):
            conv2d_nhwc(x, Tensor(np.zeros(w)), Tensor(np.zeros(5)), stride=stride)
    with pytest.raises(DimensionError):
        conv2d_nhwc(Tensor(rng.normal(size=(2, 5, 4, 3))), Tensor(np.zeros((5, 3, 2, 2))),
                    Tensor(np.zeros(5)), stride=2)


def test_conv2d_nhwc_gradients(rng):
    x = rng.normal(size=(2, 6, 4, 3))
    b = rng.normal(size=(4,))
    for w, stride in [(rng.normal(size=(4, 3, 3, 3)), 1), (rng.normal(size=(4, 3, 2, 2)), 2)]:
        check_scalar_grad(lambda a, k, c: (conv2d_nhwc(a, k, c, stride=stride) ** 2).sum(),
                          x, w, b, tol=1e-5)


@pytest.mark.parametrize("keep", [None, np.array([2.0, 0.0, 2.0])], ids=["no-drop", "keep-mask"])
def test_convnext_layer_gradients(rng, keep):
    """Finite differences through the one-node ConvNeXt layer, on a
    non-square (B, H, W, C) input and with a drop-path keep mask whose
    middle sample drops its branch."""
    c = 3
    arrays = (rng.normal(size=(3, 4, 5, c)),                       # x
              rng.normal(size=(c, 3, 3)), rng.normal(size=(c,)),   # depthwise w, b
              rng.normal(size=(c,)) + 1.0, rng.normal(size=(c,)),  # layer-norm gamma, beta
              rng.normal(size=(c, 4 * c)), rng.normal(size=(4 * c,)),
              rng.normal(size=(4 * c, c)), rng.normal(size=(c,)),
              rng.normal(size=(c,)))                                # LayerScale
    check_scalar_grad(lambda *t: (convnext_layer(*t, keep=keep) ** 2).sum(), *arrays,
                      tol=1e-5)


@pytest.mark.parametrize("batch", [1, 37])
@pytest.mark.parametrize("case", ["gelu", "layer_norm_nchw_axis1", "layer_norm_last_axis"])
def test_gelu_layer_norm_match_composed_reference(rng, case, batch):
    """The one-node GELU and layer-norm the NCHW oracle extractor runs give
    bit-identical outputs to their tape-op compositions, and gradients
    within atol 1e-12."""
    if case == "gelu":
        name, kw = "gelu", {}
        arrays = (rng.normal(scale=2.0, size=(batch, 5, 7)),)
    elif case == "layer_norm_nchw_axis1":
        name, kw, c = "layer_norm", {"axis": 1}, 4
        arrays = (rng.normal(size=(batch, c, 3, 5)),
                  rng.normal(size=(1, c, 1, 1)) + 1.0, rng.normal(size=(1, c, 1, 1)))
    else:
        name, kw, c = "layer_norm", {"axis": -1}, 6
        arrays = (rng.normal(size=(batch, c)), rng.normal(size=(c,)) + 1.0,
                  rng.normal(size=(c,)))
    shipped = {"gelu": gelu, "layer_norm": geo_reference.layer_norm}[name]
    g = rng.normal(size=arrays[0].shape)
    got = _output_and_grads(shipped, arrays, g, **kw)
    want = _output_and_grads(getattr(composed_reference, name), arrays, g, **kw)
    assert np.array_equal(got[0], want[0])
    for part, a, r in zip(("x", "gamma", "beta"), got[1:], want[1:]):
        assert a.shape == r.shape, part
        assert np.allclose(a, r, rtol=0.0, atol=1e-12), part


@pytest.mark.parametrize("shape", [(1, 8), (37, 3, 5, 4), (37, 2, 2, 32)])
def test_channels_last_layer_norm_matches_composed_reference(rng, shape):
    """The shipped layer-norm over the last axis, its means taken as
    matrix-vector products, agrees with the tape-op composition within
    atol 1e-12, forward and all three gradients."""
    c = shape[-1]
    arrays = (rng.normal(size=shape), rng.normal(size=(c,)) + 1.0, rng.normal(size=(c,)))
    g = rng.normal(size=shape)
    got = _output_and_grads(layer_norm, arrays, g)
    want = _output_and_grads(composed_reference.layer_norm, arrays, g)
    for part, a, r in zip(("out", "x", "gamma", "beta"), got, want):
        assert a.shape == r.shape, part
        assert np.allclose(a, r, rtol=0.0, atol=1e-12), part


def _affine_case(rng, kind, batch=3, n=6, widths=(5, 4), cond_dim=2, inverse=False):
    """(arrays, fn, masks) for a gradient check of one ``affine_step`` kind:
    a forward step's input is a packed (batch, n + 1) state ``[h | ld]``,
    an inverse's a (batch, n) y."""
    lo, reads = {"coupling": (3, 3), "projection": (3, 0), "masked": (0, n)}[kind]
    masked = kind == "masked"
    d = n - lo
    in_dim = reads if masked else reads + cond_dim
    arrays = [rng.normal(size=(batch, n + (not inverse))), rng.normal(size=(batch, cond_dim))]
    fan = in_dim
    for width in widths:
        arrays += [rng.normal(size=(fan, width)), rng.normal(size=(width,))]
        if masked:
            arrays.append(rng.normal(size=(cond_dim, width)))
        fan = width
    arrays += [rng.normal(scale=0.5, size=(fan, 2 * d)), rng.normal(size=(2 * d,))]
    masks = build_made_masks(n, widths, 3) if masked else None
    per = 3 if masked else 2

    def step(x, cond, *params):
        hidden = [(params[i], params[i + 1], params[i + 2] if masked else None)
                  for i in range(0, per * len(widths), per)]
        return affine_step(x, cond, hidden, params[-2], params[-1], 5.0, lo, reads, masks,
                           inverse)

    return arrays, step, masks


@pytest.mark.parametrize("kind", ["coupling", "projection", "masked"])
def test_affine_step_gradients(rng, kind):
    """Forward step: gradients of the packed state, the condition and every
    conditioner parameter, through y and the log-det column, the input
    log-det column's pass-through included."""
    arrays, step, _ = _affine_case(rng, kind)
    weight = rng.normal(size=arrays[0].shape)
    check_scalar_grad(lambda *t: (step(*t) * weight).sum(), *arrays)


def test_affine_step_masked_weight_gradients_are_masked(rng):
    arrays, step, masks = _affine_case(rng, "masked")
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    (step(*tensors) * rng.normal(size=(3, 7))).sum().backward()
    weights = [tensors[2], tensors[5], tensors[-2]]
    for w, mask in zip(weights, masks):
        assert np.all(w.grad[mask == 0] == 0.0)
        assert np.any(w.grad[mask == 1] != 0.0)


@pytest.mark.parametrize("kind", ["coupling", "projection"])
def test_affine_step_inverse_gradients(rng, kind):
    arrays, step, _ = _affine_case(rng, kind, inverse=True)
    weight = rng.normal(size=arrays[0].shape)
    check_scalar_grad(lambda *t: (step(*t) * weight).sum(), *arrays)


def _held_bytes(forward):
    """Bytes that the taped node ``forward()`` returns still holds once it
    has returned, less its output: what its backward keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        node = forward()
        return tracemalloc.get_traced_memory()[0] - before - node.data.nbytes
    finally:
        tracemalloc.stop()


def test_masked_ar_step_keeps_no_masked_weights(rng):
    """A taped MADE step holds no copy of its masked weights (the backward
    rebuilds them) nor exp(s): at d=320, widths (64, 64), condition width
    76 and B=32 it held about 792,000 bytes when it kept them, and about
    152,000 without."""
    layer = MaskedARLayer(ParameterStore(), "mar", 320, 76, rng, widths=(64, 64))
    state = Tensor(np.concatenate([rng.normal(size=(32, 320)), np.zeros((32, 1))], axis=1))
    cond = Tensor(rng.normal(size=(32, 76)))
    masked_copies = sum(mask.size * 8 for mask in layer.net.masks)
    assert masked_copies == 524_288
    assert _held_bytes(lambda: layer.step(state, cond)) < masked_copies


def test_convnext_layer_keeps_two_wide_arrays(rng):
    """Of its (rows, 4C) arrays a taped ConvNeXt layer holds GELU's output
    and slope, not the pre-activation and CDF: at B=32, an 8x8 grid and C=8
    it held about 1,734,000 bytes with the output, pre-activation and CDF,
    and about 1,210,000 with the output and slope."""
    c = 8
    params = [Tensor(a, requires_grad=True) for a in (
        rng.normal(size=(c, 3, 3)), rng.normal(size=(c,)), rng.normal(size=(c,)) + 1.0,
        rng.normal(size=(c,)), rng.normal(size=(c, 4 * c)), rng.normal(size=(4 * c,)),
        rng.normal(size=(4 * c, c)), rng.normal(size=(c,)), rng.normal(size=(c,)))]
    x = Tensor(rng.normal(size=(32, 8, 8, c)))
    wide = 32 * 8 * 8 * 4 * c * 8  # bytes of one (rows, 4C) array
    assert 2.5 * wide == 1_310_720
    assert _held_bytes(lambda: convnext_layer(x, *params)) < 2.5 * wide


def test_batchnorm_flow_gradients(rng):
    """Train mode through the batch mean and variance, log-det column
    included; eval mode and the eval inverse with constant statistics.  A
    forward's input is a packed (B, d + 1) state ``[h | ld]``, so the
    input log-det column's pass-through is checked too."""
    x = rng.normal(1.0, 2.0, size=(5, 5))
    weight = rng.normal(size=(5, 5))

    def train(t):
        mu = t.data[:, :4].mean(axis=0, keepdims=True)
        var = ((t.data[:, :4] - mu) ** 2).mean(axis=0, keepdims=True)
        return (batchnorm_flow(t, mu, var, 1e-5, batch_stats=True) * weight).sum()

    check_scalar_grad(train, x)
    mu, var = rng.normal(size=(1, 4)), rng.uniform(0.5, 2.0, size=(1, 4))
    check_scalar_grad(lambda t: (batchnorm_flow(t, mu, var, 1e-5) * weight).sum(), x)
    check_scalar_grad(
        lambda t: (batchnorm_flow(t, mu, var, 1e-5, inverse=True) * weight[:, :4]).sum(),
        x[:, :4])


def test_backward_skips_constant_operands(rng):
    """mul, div and matmul form no product for an operand that does not
    require grad; the other operand's gradient is the one the full rule
    gives."""
    v = rng.normal(size=(3, 4))
    row = rng.normal(size=(4,)) + 3.0
    mat = rng.normal(size=(4, 2))
    left = rng.normal(size=(2, 3))
    cases = [
        (lambda t, k: t * k, v, row, lambda g, t, k: g * k),
        (lambda t, k: k * t, row, v, lambda g, t, k: (g * k).sum(axis=0)),
        (lambda t, k: t / k, v, row, lambda g, t, k: g / k),
        (lambda t, k: k / t, row, v, lambda g, t, k: (-g * k / (t * t)).sum(axis=0)),
        (lambda t, k: t @ k, v, mat, lambda g, t, k: g @ k.T),
        (lambda t, k: k @ t, v, left, lambda g, t, k: k.T @ g),
    ]
    for i, (op, t_data, k_data, rule) in enumerate(cases):
        t = Tensor(t_data.copy(), requires_grad=True)
        k = Tensor(k_data.copy())
        out = op(t, k)
        g = rng.normal(size=out.shape)
        out.backward(g)
        assert k.grad is None, i
        assert np.array_equal(t.grad, rule(g, t_data, k_data)), i


def test_layer_norm_gelu_softmax_gap(rng):
    x = rng.normal(size=(3, 6))
    g = rng.normal(size=(6,)) + 1.0
    b = rng.normal(size=(6,))
    check_scalar_grad(lambda a, gg, bb: (layer_norm(a, gg, bb) ** 2).sum(),
                      x, g, b, tol=1e-5)
    check_scalar_grad(lambda a: (softmax_rows(a) * np.arange(6.0)).sum(), x)
    rows = softmax_rows(Tensor(x)).data
    assert np.allclose(rows.sum(axis=1), 1.0)
    img = rng.normal(size=(2, 3, 4, 4))
    check_scalar_grad(lambda a: (global_avg_pool(a) ** 2).sum(), img)


def test_linear_gradient(rng):
    # the dense layers' affine map x @ w + b, bias broadcast over rows
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=(2,))
    check_scalar_grad(lambda a, ww, bb: ((a @ ww + bb) ** 2).sum(), x, w, b)


def test_no_grad_blocks_tape(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert not y.requires_grad
    y2 = (x * x).sum()
    y2.backward()
    assert x.grad is not None


def test_backward_accumulates_shared_subgraph(rng):
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x        # used twice below
    z = y + y
    z.backward()
    assert np.allclose(x.grad, [8.0])


def test_numerical_gradient_rejects_nonfinite():
    def bad(x):
        with np.errstate(invalid="ignore"):
            return float(np.log(x).sum())  # non-finite at x <= 0

    with pytest.raises(OracleError):
        numerical_gradient(bad, np.array([1e-9]))


def test_parameter_store_payload_roundtrip(rng, tmp_path):
    store = ParameterStore()
    add_param(store, "b.mat", rng.normal(size=(3, 2)))
    add_param(store, "a.vec", rng.normal(size=(4,)))
    add_param(store, "c.stat", np.ones(2), trainable=False)
    manifest = store.manifest()
    assert [m[0] for m in manifest] == ["a.vec", "b.mat", "c.stat"]
    payload = store.to_payload()
    assert len(payload) == 8 * sum(t.size for _, t in store.items())
    snap = store.snapshot()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})
    for _, t in store.items():
        t.data = t.data * 0.0 + 7.0
    header, loaded = load_checkpoint(path, store)
    assert header["manifest"] == manifest and bytes(loaded) == payload
    for name in store.names():
        assert np.array_equal(store[name].data, snap[name])
    trainables = [n for n, _ in store.trainable_items()]
    assert trainables == ["a.vec", "b.mat"]


def test_fresh_store_draws_recipes_in_registration_order():
    store = ParameterStore()
    w = store.param("w", (3, 2), normal(np.random.default_rng(4), 0.5))
    b = store.param("b", (2,), 1.5, trainable=False)
    want = np.random.default_rng(4).normal(0.0, 0.5, size=(3, 2))
    assert np.array_equal(w.data, want) and w.requires_grad
    assert np.array_equal(b.data, [1.5, 1.5]) and not b.requires_grad
    assert [n for n, _ in store.trainable_items()] == ["w"]


def _never(shape):
    raise AssertionError("an opened store ran an init recipe")


def test_opened_store_hands_out_views_and_draws_nothing(rng):
    src = ParameterStore()
    add_param(src, "a.w", rng.normal(size=(2, 3)))
    add_param(src, "b.running_var", np.ones(2), trainable=False)
    add_param(src, "c", np.array(4.0))
    manifest, payload = src.manifest(), src.to_payload()

    store = ParameterStore.opened(manifest, bytearray(payload))
    c = store.param("c", (), _never)
    w = store.param("a.w", (2, 3), _never)
    var = store.param("b.running_var", (2,), _never, trainable=False)
    store.check_complete()
    assert store.manifest() == manifest and store.to_payload() == payload
    assert float(c.data) == 4.0 and not var.requires_grad
    assert w.data.base is var.data.base  # one buffer, no copy of the bytearray
    w.data[0, 0] = 9.0  # writable

    def build(entries):
        opened = ParameterStore.opened(manifest, payload)
        for name, shape in entries:
            opened.param(name, shape, _never)
        opened.check_complete()

    with pytest.raises(CheckpointManifestError):
        build([("a.w", (3, 2))])  # wrong shape
    with pytest.raises(CheckpointManifestError):
        build([("d", (1,))])  # not in the payload
    with pytest.raises(CheckpointManifestError):
        build([("a.w", (2, 3)), ("c", ())])  # b.running_var left over
    with pytest.raises(CheckpointManifestError):
        ParameterStore.opened(manifest[::-1], payload)  # not in name order
    bad = np.frombuffer(bytearray(payload), dtype=np.float64)
    bad[6] = 0.0  # a running variance
    opened = ParameterStore.opened(manifest, bad)
    for name, shape in [("a.w", (2, 3)), ("b.running_var", (2,)), ("c", ())]:
        opened.param(name, shape, _never)
    with pytest.raises(CheckpointValueError, match="b.running_var"):
        opened.check_complete()


def test_adam_descends_quadratic():
    store = ParameterStore()
    t = add_param(store, "x", np.array([5.0, -3.0]))
    opt = Adam([("x", t)], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        loss = (t * t).sum()
        loss.backward()
        opt.step()
    assert float((t.data ** 2).sum()) < 1e-4


def test_adam_lr_scales_slow_named_params():
    store = ParameterStore()
    a = add_param(store, "a", np.array([1.0]))
    b = add_param(store, "b", np.array([1.0]))
    opt = Adam([("a", a), ("b", b)], lr=0.01, lr_scales={"b": 0.1})
    opt.zero_grad()
    ((a * a).sum() + (b * b).sum()).backward()
    opt.step()
    # same gradient structure, so the step sizes differ exactly by the scale
    da = 1.0 - float(a.data[0])
    db = 1.0 - float(b.data[0])
    assert abs(db - 0.1 * da) < 1e-12

@pytest.mark.parametrize("lr_scales", [None, {"b": 0.1, "d": 0.25}])
def test_adam_matches_reference(rng, lr_scales):
    """Over 50 steps of a toy problem every parameter stays within atol
    1e-12 of the textbook Adam in ``adam_reference``, whose rounding
    differs.  ``c`` has no gradient on odd steps, so its moments only
    decay there and it still moves."""
    shapes = {"a": (4, 5), "b": (3,), "c": (), "d": (2, 2, 3)}
    start = {n: rng.normal(size=shape) for n, shape in shapes.items()}
    targets = {n: rng.normal(0.0, 4.0, size=shape) for n, shape in shapes.items()}
    first = [3.0 * (start[n] - targets[n]) + (start[n] - targets[n]) ** 3 for n in start]
    assert np.sqrt(sum((g * g).sum() for g in first)) > 10.0  # CLIP_NORM = 10 clips
    runs = []
    for cls in (Adam, ReferenceAdam):
        tensors = {n: Tensor(v.copy(), requires_grad=True) for n, v in start.items()}
        opt = cls(list(tensors.items()), lr=0.05, lr_scales=lr_scales)
        for step in range(50):
            opt.zero_grad()
            for name, t in tensors.items():
                if name != "c" or step % 2 == 0:
                    diff = t.data - targets[name]
                    t.grad = 3.0 * diff + diff ** 3
            opt.step()
        runs.append(tensors)
    got, want = runs
    for name in start:
        assert np.abs(want[name].data - start[name]).max() > 0.1, name
        np.testing.assert_allclose(got[name].data, want[name].data, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_adam_bound_gradient_of_a_shared_parameter(rng):
    """A parameter that feeds three tape nodes sums their contributions in
    Adam's buffer, the later two in place; ``c`` feeds none.  Over 20 steps
    every parameter and both moments equal, bit for bit, a run whose
    gradients are fresh arrays copied in by ``step``."""
    start = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,)), "c": rng.normal(size=(2,))}
    inputs = rng.normal(size=(20, 5, 4))
    runs = []
    for cls in (Adam, CopyingAdam):
        tensors = {n: Tensor(v.copy(), requires_grad=True) for n, v in start.items()}
        w, b = tensors["w"], tensors["b"]
        opt = cls(list(tensors.items()), lr=0.05)
        for x in inputs:
            opt.zero_grad()
            h = Tensor(x) @ w + b
            loss = (exp(h * 0.3) * h).sum() + (w * w).sum() * 0.1 + (w @ Tensor(x[:, :3].T)).sum()
            loss.backward()
            assert np.shares_memory(w.grad, opt._new) == (cls is Adam)
            assert tensors["c"].grad is None
            opt.step()
            assert all(t.grad is None for t in tensors.values())
        runs.append([t.data for t in tensors.values()] + [opt._m, opt._v])
    got, want = runs
    assert np.abs(got[0] - start["w"]).max() > 0.1
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_adam_clips_a_huge_finite_gradient():
    """A finite gradient whose square overflows is clipped to the norm it
    has; before, the norm read inf, the clip factor 0 and the step was
    silently skipped with an overflow warning."""
    for big in (1e100, 1e200, 1e307):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([("x", t)], lr=1e-3)
        t.grad = np.array([big, 1.0])
        opt.step()
        np.testing.assert_allclose(t.data, [0.999, 2.0], rtol=0, atol=1e-9)


@pytest.mark.parametrize("case", ["nan", "inf", "overflow"])
def test_adam_fault_writes_no_parameter(case):
    """A non-finite gradient, or an update that overflows, raises
    ``TrainingFault`` with no parameter changed and no warning."""
    x = Tensor(np.array([1.79e308 if case == "overflow" else 1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([[0.5, -0.5]]), requires_grad=True)
    opt = Adam([("x", x), ("y", y)], lr=1e308 if case == "overflow" else 1e-3)
    before = [x.data.copy(), y.data.copy()]
    x.grad = np.array([{"nan": np.nan, "inf": np.inf, "overflow": -1.0}[case], 1.0])
    y.grad = np.ones((1, 2))
    with pytest.raises(TrainingFault, match="non-finite parameters after step 0"):
        opt.step()
    assert np.array_equal(x.data, before[0]) and np.array_equal(y.data, before[1])


def test_adam_writes_into_the_parameter_arrays(rng):
    """Parameters of a store opened on a payload stay views of its one
    buffer through a step, and ``restore`` writes back into them too."""
    src = ParameterStore()
    add_param(src, "a.w", rng.normal(size=(2, 3)))
    add_param(src, "b.running_var", np.ones(2), trainable=False)
    store = ParameterStore.opened(src.manifest(), bytearray(src.to_payload()))
    w = store.param("a.w", (2, 3))
    var = store.param("b.running_var", (2,), trainable=False)
    buffer = w.data.base
    stats = store.snapshot(trainable=False)
    assert list(stats) == ["b.running_var"]
    opt = Adam(list(store.trainable_items()))
    w.grad = rng.normal(size=(2, 3))
    opt.step()
    var.data *= 3.0
    store.restore(stats)
    assert w.data.base is buffer and var.data.base is buffer
    assert np.array_equal(var.data, [1.0, 1.0])
    assert not np.array_equal(w.data, src["a.w"].data)
