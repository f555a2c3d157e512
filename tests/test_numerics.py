"""Gradient-correctness tests for the reverse-mode tape and kernels.

Every differentiable op is checked against central finite differences via
the oracle helpers; the tolerances here gate everything downstream, since
all flow and fusion gradients are built from these primitives.
"""

import numpy as np
import pytest

import conv_reference
from urbanflows.errors import OracleError
from urbanflows.numerics import (
    Adam,
    ParameterStore,
    Tensor,
    clip,
    concat,
    conv2d,
    depthwise_conv2d,
    exp,
    gelu,
    global_avg_pool,
    layer_norm,
    linear,
    log,
    max_relative_error,
    no_grad,
    numerical_gradient,
    permute_columns,
    softmax_rows,
    sqrt,
    tanh,
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
    # permutation round trip
    t = Tensor(x)
    back = permute_columns(permute_columns(t, perm), np.argsort(perm))
    assert np.array_equal(back.data, x)


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
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=(2,))
    check_scalar_grad(lambda a, ww, bb: (linear(a, ww, bb) ** 2).sum(), x, w, b)


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


def test_parameter_store_payload_roundtrip(rng):
    store = ParameterStore()
    store.add("b.mat", rng.normal(size=(3, 2)))
    store.add("a.vec", rng.normal(size=(4,)))
    store.add("c.stat", np.ones(2), trainable=False)
    manifest = store.manifest()
    assert [m[0] for m in manifest] == ["a.vec", "b.mat", "c.stat"]
    payload = store.to_payload()
    assert len(payload) == store.payload_size()
    snap = store.snapshot()
    for _, t in store.items():
        t.data = t.data * 0.0 + 7.0
    store.load_payload(manifest, payload)
    for name in store.names():
        assert np.array_equal(store[name].data, snap[name])
    trainables = [n for n, _ in store.trainable_items()]
    assert trainables == ["a.vec", "b.mat"]


def test_adam_descends_quadratic():
    store = ParameterStore()
    t = store.add("x", np.array([5.0, -3.0]))
    opt = Adam([("x", t)], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        loss = (t * t).sum()
        loss.backward()
        opt.step()
    assert float((t.data ** 2).sum()) < 1e-4


def test_adam_lr_scales_slow_named_params():
    store = ParameterStore()
    a = store.add("a", np.array([1.0]))
    b = store.add("b", np.array([1.0]))
    opt = Adam([("a", a), ("b", b)], lr=0.01, lr_scales={"b": 0.1})
    opt.zero_grad()
    ((a * a).sum() + (b * b).sum()).backward()
    opt.step()
    # same gradient structure, so the step sizes differ exactly by the scale
    da = 1.0 - float(a.data[0])
    db = 1.0 - float(b.data[0])
    assert abs(db - 0.1 * da) < 1e-12