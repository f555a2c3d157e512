"""Layer-level contracts: round trips, log-dets vs numerical Jacobians,
autoregressive masking, and batch-norm mode semantics."""

import contextlib

import numpy as np
import pytest

from ar_reference import sequential_inverse
from composed_reference import composed_pass, concat, tape_nodes, use_composed_layers
from urbanflows import flow_layers
from urbanflows.config_flow import ConfigFlowModel
from urbanflows.errors import ConfigurationError, ModeError, SamplingFault
from urbanflows.flow_layers import (
    CLAMP,
    BatchNormFlow,
    Conditioner,
    CouplingLayer,
    ConditionProjectionLayer,
    FlowStack,
    MaskedARLayer,
    Permutation,
    UncondARLayer,
    build_made_masks,
    gaussian_logp,
    half_swap_perm,
    reversal_perm,
)
from urbanflows.numerics import (
    ParameterStore,
    Tensor,
    conditioner_mlp_arrays,
    grad_enabled,
    no_grad,
    numerical_jacobian,
)
from urbanflows.zone_flow import ZoneFlowModel

D = 6
COND = 3


def perturbed_layer(cls, rng, scale=0.3, **kwargs):
    """A layer with randomized conditioner outputs (identity init is too
    forgiving for round-trip and log-det checks)."""
    store = ParameterStore()
    layer = cls(store, "t", rng=rng, **kwargs)
    for name, t in store.items():
        t.data += rng.normal(0.0, scale, size=t.shape)
    return layer, store


def np_forward(layer, cond):
    def fn(vec):
        with no_grad():
            y, _ = layer.forward(Tensor(vec[None]), cond)
        return y.data[0]

    return fn


@pytest.mark.parametrize("cls,needs_cond", [
    (CouplingLayer, True),
    (ConditionProjectionLayer, True),
])
def test_coupling_family_roundtrip_and_logdet(cls, needs_cond, rng):
    layer, _ = perturbed_layer(cls, rng, d=D, cond_dim=COND, widths=(8,))
    cond = Tensor(rng.normal(size=(1, COND)))
    x = rng.normal(size=D)
    with no_grad():
        y, ld = layer.forward(Tensor(x[None]), cond)
        back = layer.inverse(y, cond)
    assert np.max(np.abs(back.data[0] - x)) < 1e-10
    jac = numerical_jacobian(np_forward(layer, cond), x)
    sign, num_ld = np.linalg.slogdet(jac)
    assert sign > 0
    assert abs(num_ld - float(ld.data[0])) < 1e-6


@pytest.mark.parametrize("make", [
    lambda rng: perturbed_layer(MaskedARLayer, rng, d=D, cond_dim=COND,
                                widths=(10,), mask_seed=4)[0],
    lambda rng: perturbed_layer(UncondARLayer, rng, d=D,
                                widths=(10,), mask_seed=4)[0],
])
def test_ar_layers_roundtrip_and_logdet(make, rng):
    layer = make(rng)
    cond = Tensor(rng.normal(size=(1, COND))) if layer.cond_dim else None
    x = rng.normal(size=D)
    with no_grad():
        y, ld = layer.forward(Tensor(x[None]), cond)
        back = layer.inverse(y, cond)
    assert np.max(np.abs(back.data[0] - x)) < 1e-9
    jac = numerical_jacobian(np_forward(layer, cond), x)
    sign, num_ld = np.linalg.slogdet(jac)
    assert sign > 0
    assert abs(num_ld - float(ld.data[0])) < 1e-6
    # the Jacobian must be triangular: no dependence of output i on input j > i
    upper = np.triu(jac, k=1)
    assert np.max(np.abs(upper)) < 1e-12


def test_autoregression_strictness_first_output(rng):
    # output 0 may depend on nothing: its scale and shift are constants
    layer, _ = perturbed_layer(MaskedARLayer, rng, d=D, cond_dim=0,
                               widths=(12,), mask_seed=1)
    s, b = layer.net.bind()(rng.normal(size=(50, D)))
    assert np.ptp(s[:, 0]) == 0.0
    assert np.ptp(b[:, 0]) == 0.0


def test_made_masks_deterministic_and_validated():
    a = build_made_masks(5, (7, 7), seed=3)
    b = build_made_masks(5, (7, 7), seed=3)
    for ma, mb in zip(a[:-1], b[:-1]):
        assert np.array_equal(ma, mb)
    assert np.array_equal(a[-1], b[-1])
    c = build_made_masks(5, (7, 7), seed=4)
    assert any(not np.array_equal(x, y)
               for x, y in zip(a[:-1], c[:-1]))
    with pytest.raises(ConfigurationError):
        build_made_masks(1, (4,), seed=0)


def test_made_masks_are_shared_and_read_only(rng):
    masks = build_made_masks(5, (7, 7), seed=3)
    assert build_made_masks(5, [7, 7], seed=3) is masks
    assert isinstance(masks, tuple)
    assert [m.shape for m in masks] == [(5, 7), (7, 7), (7, 10)]
    for arr in masks:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
        assert arr.dtype == bool
    # one output mask covers the s and b panels alike
    assert np.array_equal(masks[-1][:, :5], masks[-1][:, 5:])
    a = Conditioner(ParameterStore(), "a", 5, 5, rng, widths=(7, 7), mask_seed=3)
    b = Conditioner(ParameterStore(), "b", 5, 5, rng, widths=(7, 7), mask_seed=3)
    assert a.masks is b.masks is masks


@pytest.mark.parametrize("cls", [MaskedARLayer, UncondARLayer])
def test_ar_inverse_sweeps_run_off_the_tape(cls, rng, monkeypatch):
    """The Jacobi sweeps run the conditioner's numpy body on ndarrays, with
    the tape primitive never called; its pass gives the composed pass's
    bits."""
    kwargs = {"cond_dim": COND} if cls is MaskedARLayer else {}
    layer, _ = perturbed_layer(cls, rng, d=D, widths=(8,), mask_seed=4, **kwargs)
    cond = Tensor(rng.normal(size=(5, COND))) if layer.cond_dim else None
    y = Tensor(rng.normal(size=(5, D)))
    x = rng.normal(size=(5, D))
    with no_grad():
        s_ref, b_ref = composed_pass(layer.net, Tensor(x), cond)
    s_arr, b_arr = layer.net.bind(None if cond is None else cond.data)(x)
    assert np.array_equal(s_arr, s_ref.data) and np.array_equal(b_arr, b_ref.data)
    want = sequential_inverse(layer, y, cond).data

    def refuse(*args):
        raise AssertionError("tape primitive called in an AR inverse")

    monkeypatch.setattr(flow_layers, "affine_step", refuse)
    layer.net.calls = 0
    got = layer.inverse(y, cond)
    assert 2 <= layer.net.calls <= D + 1
    np.testing.assert_allclose(got.data, want, rtol=0.0, atol=1e-12)


def test_conditioner_call_counter(rng):
    layer, _ = perturbed_layer(MaskedARLayer, rng, d=D, cond_dim=COND,
                               widths=(8,), mask_seed=2)
    cond = Tensor(rng.normal(size=(2, COND)))
    x = Tensor(rng.normal(size=(2, D)))
    assert layer.net.calls == 0
    with no_grad():
        y, _ = layer.forward(x, cond)
    assert layer.net.calls == 1          # density: one vectorized pass
    sequential_inverse(layer, y, cond)
    assert layer.net.calls == 1 + D      # reference: d sequential passes
    layer.net.calls = 0
    with no_grad():
        layer.inverse(y, cond)
    assert 2 <= layer.net.calls <= D + 1  # fixed point: at most d + 1 sweeps

    # a fresh layer is the identity: one sweep to reach y, one to confirm it
    fresh = MaskedARLayer(ParameterStore(), "f", D, COND, rng, widths=(8,))
    with no_grad():
        back = fresh.inverse(y, cond)
    assert np.array_equal(back.data, y.data)
    assert fresh.net.calls == 2


@pytest.mark.parametrize("cls", [MaskedARLayer, UncondARLayer])
@pytest.mark.parametrize("batch", [1, 37])
def test_ar_fixed_point_inverse_matches_sequential(cls, batch, rng):
    d = 24
    kwargs = {"cond_dim": COND} if cls is MaskedARLayer else {}
    layer, _ = perturbed_layer(cls, rng, d=d, widths=(16, 16), mask_seed=5,
                               **kwargs)
    cond = Tensor(rng.normal(size=(batch, COND))) if layer.cond_dim else None
    y = Tensor(rng.normal(size=(batch, d)))
    want = sequential_inverse(layer, y, cond).data
    layer.net.calls = 0
    with no_grad():
        got = layer.inverse(y, cond).data
        y_back, _ = layer.forward(Tensor(got), cond)
    assert layer.net.calls <= d + 1
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(y_back.data, y.data, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("cls", [CouplingLayer, ConditionProjectionLayer,
                                 MaskedARLayer, UncondARLayer])
@pytest.mark.parametrize("batch", [1, 37])
def test_bound_conditioner_matches_unbound_reference(cls, batch, rng, monkeypatch):
    """The conditioner pass ``bind`` (bound once per condition) gives
    bit-identical (s, b) to the pass composed from tape ops, and the
    one-node layer step and the AR inverse give bit-identical forwards,
    log-dets and inverses to the composed layers, with the same pass
    counts and gradients within atol 1e-12."""
    d = 24
    dense = cls in (CouplingLayer, ConditionProjectionLayer)
    kwargs = {} if cls is UncondARLayer else {"cond_dim": COND}
    if not dense:
        kwargs["mask_seed"] = 5
    layer, store = perturbed_layer(cls, rng, d=d, widths=(16, 16), **kwargs)
    x_data = rng.normal(size=(batch, d))
    cond_data = rng.normal(size=(batch, COND)) if "cond_dim" in kwargs else None
    g = rng.normal(size=(batch, d))

    def conditioner_out(x, cond, composed):
        if dense:  # the condition is part of the conditioner's input
            x, cond = (concat([x[:, : layer.half], cond], axis=1)
                       if layer.reads_h1 else cond), None
        if composed:
            return [t.data for t in composed_pass(layer.net, x, cond)]
        return layer.net.bind(None if cond is None else cond.data)(x.data)

    def run(composed):
        store.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        cond = None if cond_data is None else Tensor(cond_data, requires_grad=True)
        layer.net.calls = 0
        with no_grad():
            s, b = conditioner_out(Tensor(x_data), cond, composed)
            back = layer.inverse(Tensor(x_data), cond)
        calls = layer.net.calls
        y, ld = layer.forward(x, cond)
        ((y * Tensor(g)).sum() + ld.sum()).backward()
        return [s, b, back.data, y.data, ld.data], calls, _grads(store, x=x, cond=cond)

    got, got_calls, got_grads = run(False)
    use_composed_layers(monkeypatch)
    want, want_calls, want_grads = run(True)
    for part, a, r in zip(("s", "b", "inverse", "y", "logdet"), got, want):
        assert np.array_equal(a, r), part
    assert got_calls == want_calls
    _assert_grads_close(got_grads, want_grads)


def _grads(store, **inputs):
    grads = {name: t.grad for name, t in store.items()}
    grads.update({name: None if t is None else t.grad for name, t in inputs.items()})
    return grads


def _assert_grads_close(got, want):
    assert got.keys() == want.keys()
    for name, a in got.items():
        r = want[name]
        assert (a is None) == (r is None), name
        if a is not None:
            np.testing.assert_allclose(a, r, rtol=0.0, atol=1e-12, err_msg=name)


FUSED_CASES = [(case, batch) for case in ("coupling", "condition_projection", "masked_ar",
                                          "uncond_ar", "batchnorm_eval")
               for batch in (1, 37)] + [("batchnorm_train", 2), ("batchnorm_train", 37)]


@pytest.mark.parametrize("case,batch", FUSED_CASES)
def test_fused_layers_match_composed_reference(case, batch, rng, monkeypatch):
    """Each layer's one-node forward (and inverse) gives bit-identical
    outputs, log-dets, inverses and running statistics to the layer
    composed from tape ops, taped and under no_grad, and gradients of x,
    the condition and every parameter within atol 1e-12."""
    d = 24
    if case.startswith("batchnorm"):
        store = ParameterStore()
        layer = BatchNormFlow(store, "bn", d)
        layer.running_mean.data = rng.normal(size=d)
        layer.running_var.data = rng.uniform(0.5, 2.0, size=d)
        mode = case.split("_")[1]
        forward = lambda x, cond: layer.forward(x, mode)
        inverse = lambda y, cond: layer.inverse(y, "eval")
        cond_data = None
    else:
        cls = {"coupling": CouplingLayer, "condition_projection": ConditionProjectionLayer,
               "masked_ar": MaskedARLayer, "uncond_ar": UncondARLayer}[case]
        kwargs = {} if case == "uncond_ar" else {"cond_dim": COND}
        if case.endswith("_ar"):
            kwargs["mask_seed"] = 5
        layer, store = perturbed_layer(cls, rng, d=d, widths=(16, 16), **kwargs)
        forward = lambda x, cond: layer.forward(x, cond)
        inverse = lambda y, cond: layer.inverse(y, cond)
        cond_data = None if case == "uncond_ar" else rng.normal(size=(batch, COND))
    # the AR inverse is a fixed-point solve off the tape: no gradient
    inverse_taped = not case.endswith("_ar")
    x_data = rng.normal(size=(batch, d))
    g, g_ld = rng.normal(size=(batch, d)), rng.normal(size=batch)
    start = store.snapshot()

    def inputs():
        return (Tensor(x_data, requires_grad=True),
                None if cond_data is None else Tensor(cond_data, requires_grad=True))

    def run():
        store.restore(start)
        store.zero_grad()
        x, cond = inputs()
        y, ld = forward(x, cond)
        loss = (y * Tensor(g)).sum() + (ld * Tensor(g_ld)).sum()
        nodes = tape_nodes(loss)
        loss.backward()
        forward_grads = _grads(store, x=x, cond=cond)
        stats = [t.data.copy() for name, t in store.items() if "running" in name]
        store.restore(start)
        store.zero_grad()
        y_in, cond = inputs()
        back = inverse(y_in, cond)
        inverse_grads = None
        if inverse_taped:
            (back * Tensor(g)).sum().backward()
            inverse_grads = _grads(store, y=y_in, cond=cond)
        store.restore(start)
        with no_grad():
            y_ng, ld_ng = forward(Tensor(x_data), None if cond is None else Tensor(cond_data))
            back_ng = inverse(Tensor(x_data), None if cond is None else Tensor(cond_data))
        values = [y.data, ld.data, back.data, y_ng.data, ld_ng.data, back_ng.data, *stats]
        return values, forward_grads, inverse_grads, nodes

    got, got_fwd, got_inv, got_nodes = run()
    use_composed_layers(monkeypatch)
    want, want_fwd, want_inv, want_nodes = run()
    # the composed forward ran: its layer is many tape ops, not one node
    assert want_nodes > got_nodes
    names = ("y", "logdet", "inverse", "y no_grad", "logdet no_grad", "inverse no_grad",
             "running_mean", "running_var")
    assert len(got) == len(want)
    for part, a, r in zip(names, got, want):
        assert a.shape == r.shape and np.array_equal(a, r), part
    _assert_grads_close(got_fwd, want_fwd)
    if inverse_taped:
        _assert_grads_close(got_inv, want_inv)


@pytest.mark.parametrize("stage", ["zone", "config"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_fused_stacks_match_composed_reference(stage, mode, rng, monkeypatch):
    """Both stages' stacks, forward (NLL parts and running statistics) and
    inverse, are bit for bit the composed layers', with gradients within
    atol 1e-12."""
    store = ParameterStore()
    model = stage_model(stage, rng, store)
    start = store.snapshot()
    x_data = rng.normal(size=(37, model.d))
    z_data = rng.normal(size=(37, model.d))
    cond_data = rng.normal(size=(37, COND))

    def run():
        store.restore(start)
        store.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        cond = Tensor(cond_data, requires_grad=True)
        z, logdet = model.forward(x, cond, mode)
        nll = gaussian_logp(z) * (-1.0) - logdet
        nodes = tape_nodes(nll)
        nll.mean().backward()
        grads = _grads(store, x=x, cond=cond)
        stats = [t.data.copy() for name, t in store.items() if "running" in name]
        with no_grad():
            z_ng, logdet_ng = model.forward(Tensor(x_data), Tensor(cond_data), mode,
                                            update_stats=False)
            back = model.inverse(Tensor(z_data), Tensor(cond_data))
        return [z.data, logdet.data, nll.data, z_ng.data, logdet_ng.data, back.data,
                *stats], grads, nodes

    got, got_grads, got_nodes = run()
    use_composed_layers(monkeypatch)
    want, want_grads, want_nodes = run()
    # the stack ran the patched steps, not its own one-node ones
    assert want_nodes > got_nodes
    for i, (a, r) in enumerate(zip(got, want)):
        assert np.array_equal(a, r), i
    _assert_grads_close(got_grads, want_grads)


@pytest.mark.parametrize("call", [
    lambda layer, x, cond: layer.forward(x, cond, "nonsense"),
    lambda layer, x, cond: layer.inverse(x, cond, "Eval"),
], ids=["forward", "inverse"])
@pytest.mark.parametrize("cls", [CouplingLayer, MaskedARLayer])
def test_affine_layers_reject_unknown_modes(cls, call, rng):
    layer, _ = perturbed_layer(cls, rng, d=D, cond_dim=COND, widths=(8,))
    x = Tensor(rng.normal(size=(3, D)))
    cond = Tensor(rng.normal(size=(3, COND)))
    with pytest.raises(ModeError, match="nonsense|'Eval'"):
        with no_grad():
            call(layer, x, cond)


def test_batchnorm_rejects_unknown_modes(rng):
    bn = BatchNormFlow(ParameterStore(), "bn", d=D)
    x = Tensor(rng.normal(size=(4, D)))
    before = bn.running_mean.data.copy()
    with pytest.raises(ModeError, match="'Train'"):
        bn.forward(x, mode="Train")
    with pytest.raises(ModeError, match="'trian'"):
        bn.inverse(x, mode="trian")
    assert np.array_equal(bn.running_mean.data, before)


@pytest.mark.parametrize("stage", ["zone", "config"])
def test_flow_stacks_reject_unknown_modes(stage, rng):
    model = stage_model(stage, rng)
    x = Tensor(rng.normal(size=(4, model.d)))
    cond = Tensor(rng.normal(size=(4, COND)))
    with pytest.raises(ModeError, match="'Train'"):
        model.forward(x, cond, mode="Train")


@pytest.mark.parametrize("width", [1, D - 1, D + 2, 2 * D])
@pytest.mark.parametrize("cls", [CouplingLayer, ConditionProjectionLayer, BatchNormFlow,
                                 MaskedARLayer, UncondARLayer])
def test_layers_reject_inputs_of_the_wrong_width(cls, width, rng):
    """Forward and inverse, taped and under no_grad, an input whose width
    is not the layer's raises ConfigurationError naming both widths."""
    if cls is BatchNormFlow:
        layer = BatchNormFlow(ParameterStore(), "bn", D)
        calls = (lambda x, cond: layer.forward(x, "train"),
                 lambda x, cond: layer.forward(x, "eval"),
                 lambda x, cond: layer.inverse(x, "eval"))
    else:
        kwargs = {} if cls is UncondARLayer else {"cond_dim": COND}
        layer, _ = perturbed_layer(cls, rng, d=D, widths=(8,), **kwargs)
        calls = (layer.forward, layer.inverse)
    x = Tensor(rng.normal(size=(4, width)))
    cond = Tensor(rng.normal(size=(4, COND)))
    for call in calls:
        for context in (contextlib.nullcontext, no_grad):
            with context(), pytest.raises(ConfigurationError,
                                          match=f"width {D}, got {width}$"):
                call(x, cond)


def test_identity_initialization(rng):
    store = ParameterStore()
    layer = CouplingLayer(store, "c", d=D, cond_dim=COND, rng=rng, widths=(8,))
    x = rng.normal(size=(4, D))
    cond = Tensor(rng.normal(size=(4, COND)))
    with no_grad():
        y, ld = layer.forward(Tensor(x), cond)
    assert np.array_equal(y.data, x)
    assert np.array_equal(ld.data, np.zeros(4))


def test_scale_clamp_bounds():
    # no hidden layer and a zero output weight: the raw scales are the bias
    raw = np.array([-1e6, -1.0, 0.0, 1.0, 1e6, 0.0, 0.0, 0.0, 0.0, 0.0])
    out, _, _ = conditioner_mlp_arrays(np.zeros((1, 1)), [], np.zeros((1, 10)), raw, 5,
                                       CLAMP)
    s = out[0, :5]
    assert np.array_equal(out[0, 5:], np.zeros(5))
    assert s[0] > -CLAMP - 1e-12 and s[-1] < CLAMP + 1e-12
    assert abs(s[0] + CLAMP) < 1e-9 and abs(s[-1] - CLAMP) < 1e-9
    assert s[2] == 0.0
    # smooth near zero: derivative ~= 1
    assert abs(s[3] - CLAMP * np.tanh(1.0 / CLAMP)) < 1e-15


def test_batchnorm_fresh_eval_is_identity(rng):
    store = ParameterStore()
    bn = BatchNormFlow(store, "bn", d=D)
    x = rng.normal(size=(3, D))
    with no_grad():
        y, ld = bn.forward(Tensor(x), mode="eval", update_stats=False)
    # running_var starts at 1 - eps, so var + eps = 1 exactly
    assert np.array_equal(y.data, x)
    assert np.array_equal(ld.data, np.zeros(3))


def test_batchnorm_train_normalizes_and_updates(rng):
    store = ParameterStore()
    bn = BatchNormFlow(store, "bn", d=D)
    x = rng.normal(2.0, 3.0, size=(64, D))
    with no_grad():
        y, ld = bn.forward(Tensor(x), mode="train")
    assert np.max(np.abs(y.data.mean(axis=0))) < 1e-12
    assert np.max(np.abs(y.data.var(axis=0) - 1.0)) < 1e-4
    # momentum 0.9 after one batch
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    assert np.allclose(bn.running_mean.data, 0.1 * mu)
    assert np.allclose(bn.running_var.data, 0.9 * (1 - bn.eps) + 0.1 * var)
    expected_ld = -0.5 * np.log(var + bn.eps).sum()
    assert np.allclose(ld.data, expected_ld)


def test_batchnorm_eval_roundtrip_and_train_inverse_forbidden(rng):
    store = ParameterStore()
    bn = BatchNormFlow(store, "bn", d=D)
    warm = rng.normal(1.0, 2.0, size=(128, D))
    with no_grad():
        bn.forward(Tensor(warm), mode="train")
    x = rng.normal(size=(5, D))
    with no_grad():
        y, _ = bn.forward(Tensor(x), mode="eval", update_stats=False)
        back = bn.inverse(y, mode="eval")
    assert np.max(np.abs(back.data - x)) < 1e-10
    with pytest.raises(ModeError):
        bn.inverse(y, mode="train")
    with pytest.raises(ConfigurationError):
        with no_grad():
            bn.forward(Tensor(x[:1]), mode="train")


def test_batchnorm_apply_on_states(rng):
    # a batch of independent states through eval-mode batch norm and back
    store = ParameterStore()
    bn = BatchNormFlow(store, "bn", d=D)
    warm = rng.normal(0.0, 2.0, size=(32, D))
    with no_grad():
        bn.forward(Tensor(warm), mode="train")
    states = rng.normal(size=(5, D))
    with no_grad():
        outs, ld = bn.forward(Tensor(states), mode="eval", update_stats=False)
        backs = bn.inverse(outs, mode="eval")
    for s, b in zip(states, backs.data):
        assert np.max(np.abs(b - s)) < 1e-10
    # the eval-mode log-det is one value shared by every state
    assert all(v == ld.data[0] for v in ld.data)


def test_batchnorm_logdet_matches_jacobian(rng):
    store = ParameterStore()
    bn = BatchNormFlow(store, "bn", d=D)
    warm = rng.normal(0.5, 1.7, size=(64, D))
    with no_grad():
        bn.forward(Tensor(warm), mode="train")

    def fn(vec):
        with no_grad():
            y, _ = bn.forward(Tensor(vec[None]), mode="eval", update_stats=False)
        return y.data[0]

    x = rng.normal(size=D)
    jac = numerical_jacobian(fn, x)
    _, num_ld = np.linalg.slogdet(jac)
    ld = analytic_logdet_bn(bn, x)
    assert abs(num_ld - ld) < 1e-7


def analytic_logdet_bn(bn, x):
    with no_grad():
        _, ld = bn.forward(Tensor(x[None]), mode="eval", update_stats=False)
    return float(ld.data[0])


def test_permutations_are_involutions_and_volume_free(rng):
    for perm in (half_swap_perm(D), reversal_perm(D)):
        assert np.array_equal(perm[perm], np.arange(D))
        layer = Permutation(perm)
        x = rng.normal(size=(3, D))
        with no_grad():
            y, ld = layer.forward(Tensor(x))
            back = layer.inverse(y)
        assert ld is None
        assert np.array_equal(back.data, x)


def test_flow_stack_with_general_permutation(rng):
    # a cyclic shift is not an involution, so the inverse must undo it
    # with the inverse permutation; the ablated layer is skipped
    store = ParameterStore()
    blocks = [
        {"coupling": CouplingLayer(store, f"s.block{i}.coupling", D, COND, rng, (8,)),
         "proj": None,
         "bn": BatchNormFlow(store, f"s.block{i}.bn", D)}
        for i in range(3)
    ]
    perm = np.roll(np.arange(D), 1)
    stack = FlowStack(blocks, Permutation(perm))
    for _, t in store.trainable_items():
        t.data += rng.normal(0.0, 0.3, size=t.shape)
    assert [(kind, block) for kind, block, _, _ in stack.layers] == [
        ("coupling", 0), ("batchnorm", 0), ("coupling", 1), ("batchnorm", 1),
        ("coupling", 2), ("batchnorm", 2)]
    assert np.array_equal(stack.layers[2][3], perm)
    assert np.array_equal(stack.final_layout, perm[perm])
    x = rng.normal(size=(4, D))
    cond = Tensor(rng.normal(size=(4, COND)))
    with no_grad():
        z, _ = stack.forward(Tensor(x), cond, mode="eval", update_stats=False)
        back = stack.inverse(z, cond)
    assert np.max(np.abs(back.data - x)) < 1e-10


def stage_model(stage, rng, store=None):
    store = ParameterStore() if store is None else store
    if stage == "zone":
        model = ZoneFlowModel(store, "zone", 16, COND, rng, k=3, widths=(8,))
    else:
        model = ConfigFlowModel(store, "config", 12, COND, rng, k=2, widths=(8,))
    for _, t in store.items():
        t.data += rng.normal(0.0, 0.08, size=t.shape)
    return model


@pytest.mark.parametrize("stage", ["zone", "config"])
def test_flow_stack_inverse_hook_is_forward_hook_shifted(stage, rng):
    # after inverting layer j the state is layer j's input, which is the
    # forward state after layer j - 1 (or the data itself for j = 0)
    model = stage_model(stage, rng)
    cond = Tensor(rng.normal(size=(5, COND)))
    inv, fwd = {}, {}
    with no_grad():
        x = model.inverse(Tensor(rng.normal(size=(5, model.d))), cond,
                          collect=lambda i, kind, s: inv.setdefault(i, (kind, s)))
        z, _ = model.forward(x, cond, mode="eval", update_stats=False,
                             collect=lambda i, kind, s: fwd.setdefault(i, (kind, s)))
    n = len(model.layers)
    assert list(inv) == list(range(n - 1, -1, -1))
    assert list(fwd) == list(range(n))
    for j, (kind, _, _, _) in enumerate(model.layers):
        assert inv[j][0] == fwd[j][0] == kind
    assert np.max(np.abs(inv[0][1] - x.data)) < 1e-8
    for j in range(1, n):
        assert np.max(np.abs(inv[j][1] - fwd[j - 1][1])) < 1e-8
    assert np.array_equal(fwd[n - 1][1], z.data)


@pytest.mark.parametrize("stage", ["zone", "config"])
def test_flow_stack_sample_is_the_inverse_off_the_tape(stage, rng):
    """Given z, ``sample`` returns the bits of ``inverse`` run under
    no_grad on the same z and reports the same collect states, each
    collected with the tape off; without z it draws z from rng.  The grad
    flag is as it found it afterwards."""
    model = stage_model(stage, rng)
    cond = rng.normal(size=(5, COND))
    z = rng.normal(size=(5, model.d))
    got, want = [], []
    x, z_out = model.sample(cond, None, z=z,
                            collect=lambda *state: got.append((*state, grad_enabled())))
    assert grad_enabled()
    assert z_out is z
    with no_grad():
        back = model.inverse(Tensor(z), Tensor(cond), collect=lambda *state: want.append(state))
    assert isinstance(x, np.ndarray) and x.tobytes() == back.data.tobytes()
    assert len(got) == len(want) == len(model.layers)
    for (i, kind, state, taped), (want_i, want_kind, want_state) in zip(got, want):
        assert (i, kind, taped) == (want_i, want_kind, False)
        assert state.tobytes() == want_state.tobytes()
    x2, z2 = model.sample(cond, np.random.default_rng(4))
    np.testing.assert_array_equal(z2, np.random.default_rng(4).standard_normal((5, model.d)))
    assert x2.tobytes() == model.sample(cond, None, z=z2)[0].tobytes()
    with no_grad():
        model.sample(cond, None, z=z)
        assert not grad_enabled()


@pytest.mark.parametrize("grad", [True, False], ids=["taped", "no_grad"])
@pytest.mark.parametrize("stage", ["zone", "config"])
def test_flow_stack_sample_keeps_the_grad_flag_through_a_sampling_fault(stage, grad, rng):
    """A poisoned first layer, the last one inverted, raises
    ``SamplingFault`` naming it, and the grad flag is as ``sample``
    found it."""
    model = stage_model(stage, rng)
    model.layers[0][2].net.final[1].data[:] = np.inf
    with contextlib.ExitStack() as stack:
        if not grad:
            stack.enter_context(no_grad())
        with pytest.raises(SamplingFault) as info:
            model.sample(rng.normal(size=(3, COND)), np.random.default_rng(1))
        assert grad_enabled() is grad
    assert info.value.layer_index == 0
    assert grad_enabled()


def test_gaussian_logp_reference():
    z = Tensor(np.zeros((1, 4)))
    # -0.5 * d * ln(2 pi) at the origin
    assert abs(float(gaussian_logp(z).data[0]) + 3.6757541328186907) < 1e-14
    z2 = Tensor(np.array([[1.0, -2.0]]))
    expect = -0.5 * (1 + 4) - np.log(2 * np.pi)
    assert abs(float(gaussian_logp(z2).data[0]) - expect) < 1e-14


def test_conditioned_made_network_needs_a_hidden_layer(rng):
    """With no hidden layer a MADE network has nowhere to add its condition
    terms, so it would ignore the condition; it is refused instead.  A
    dense one, or a MADE one without a condition, is linear."""
    with pytest.raises(ConfigurationError, match="needs a hidden layer"):
        Conditioner(ParameterStore(), "n", D, D, rng, widths=(), cond_dim=COND, mask_seed=0)
    for cond_dim, mask_seed in ((COND, None), (0, 0)):
        net = Conditioner(ParameterStore(), "n", D, D, rng, widths=(), cond_dim=cond_dim,
                          mask_seed=mask_seed)
        assert net.hidden == []


# each construction rule is checked once, by the class that enforces it:
# (build on a fresh store and rng, message)
CONSTRUCTION_RULES = {
    "config-no-block": (lambda store, rng: ConfigFlowModel(store, "c", D, COND, rng, k=0),
                        "at least one block"),
    "config-d1": (lambda store, rng: ConfigFlowModel(store, "c", 1, COND, rng, k=1),
                  "d >= 2"),
    "zone-odd-d": (lambda store, rng: ZoneFlowModel(store, "z", 5, COND, rng, k=1),
                   "even d"),
    "zone-no-block": (lambda store, rng: ZoneFlowModel(store, "z", D, COND, rng, k=0),
                      "at least one block"),
    "stack-no-block": (lambda store, rng: FlowStack([], Permutation(reversal_perm(D))),
                       "at least one block"),
    "made-width-0": (lambda store, rng: build_made_masks(D, (4, 0), seed=0),
                     "hidden widths"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_RULES))
def test_construction_rules_raise_configuration_error(case, rng):
    """A model or stack with no block, a zone model with odd d, a config
    model with d < 2 and a MADE mask set with an empty hidden layer are
    refused before any parameter is registered."""
    build, message = CONSTRUCTION_RULES[case]
    store = ParameterStore()
    with pytest.raises(ConfigurationError, match=message):
        build(store, rng)
    assert store.names() == []


def test_conditioner_net_shapes(rng):
    store = ParameterStore()
    net = Conditioner(store, "n", in_dim=5, d=4, rng=rng, widths=(8, 8))
    s, b = net.bind()(rng.normal(size=(3, 5)))
    assert s.shape == (3, 4) and b.shape == (3, 4)
    # zero-initialized head
    assert np.array_equal(s, np.zeros((3, 4)))
    assert np.array_equal(b, np.zeros((3, 4)))