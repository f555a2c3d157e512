"""Layer-level contracts: round trips, log-dets vs numerical Jacobians,
autoregressive masking, batch-norm mode semantics, and the single-sample
wrapper API."""

import numpy as np
import pytest

from ar_reference import sequential_inverse
from urbanflows.errors import ConfigurationError, ModeError
from urbanflows.flow_layers import (
    CLAMP,
    BatchNormFlow,
    ConditionerNet,
    CouplingLayer,
    ConditionProjectionLayer,
    FlowState,
    MaskedARLayer,
    Permutation,
    UncondARLayer,
    batchnorm_apply,
    build_made_masks,
    clamp_scale,
    coupling_apply,
    gaussian_logp,
    half_swap_perm,
    masked_ar_apply,
    reversal_perm,
    uncond_ar_projection_apply,
)
from urbanflows.numerics import ParameterStore, Tensor, no_grad, numerical_jacobian

D = 6
COND = 3


def perturbed_layer(cls, rng, scale=0.3, **kwargs):
    """A layer with randomized conditioner outputs (identity init is too
    forgiving for round-trip and log-det checks)."""
    store = ParameterStore()
    layer = cls(store, "t", rng=rng, **kwargs)
    for name, t in store.items():
        t.data = t.data + rng.normal(0.0, scale, size=t.shape)
    return layer, store


def np_forward(layer, cond):
    def fn(vec):
        with no_grad():
            y, _ = layer.forward(Tensor(vec[None]), cond)
        return y.data[0]

    return fn


def analytic_logdet(layer, x, cond):
    with no_grad():
        _, ld = layer.forward(Tensor(x[None]), cond)
    return float(ld.data[0])


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
    xs = rng.normal(size=(50, D))
    with no_grad():
        s, b = layer.net(Tensor(xs), None)
    assert np.ptp(s.data[:, 0]) == 0.0
    assert np.ptp(b.data[:, 0]) == 0.0


def test_made_masks_deterministic_and_validated():
    a = build_made_masks(5, (7, 7), seed=3)
    b = build_made_masks(5, (7, 7), seed=3)
    for ma, mb in zip(a.hidden_masks, b.hidden_masks):
        assert np.array_equal(ma, mb)
    assert np.array_equal(a.out_mask, b.out_mask)
    c = build_made_masks(5, (7, 7), seed=4)
    assert any(not np.array_equal(x, y)
               for x, y in zip(a.hidden_masks, c.hidden_masks))
    with pytest.raises(ConfigurationError):
        build_made_masks(1, (4,), seed=0)


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
    raw = Tensor(np.array([[-1e6, -1.0, 0.0, 1.0, 1e6]]))
    s = clamp_scale(raw).data[0]
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


def test_gaussian_logp_reference():
    z = Tensor(np.zeros((1, 4)))
    # -0.5 * d * ln(2 pi) at the origin
    assert abs(float(gaussian_logp(z).data[0]) + 3.6757541328186907) < 1e-14
    z2 = Tensor(np.array([[1.0, -2.0]]))
    expect = -0.5 * (1 + 4) - np.log(2 * np.pi)
    assert abs(float(gaussian_logp(z2).data[0]) - expect) < 1e-14


def test_single_state_wrappers_roundtrip(rng):
    layer, _ = perturbed_layer(CouplingLayer, rng, d=D, cond_dim=COND, widths=(8,))
    cond = rng.normal(size=COND)
    state = FlowState(rng.normal(size=D), accumulated_logdet=1.5)
    fwd = coupling_apply(state, cond, layer, direction="forward")
    assert fwd.accumulated_logdet != 1.5  # perturbed layer has nonzero logdet
    back = coupling_apply(fwd, cond, layer, direction="inverse")
    assert np.max(np.abs(back.vector - state.vector)) < 1e-10
    # inverse direction does not claim any log-det contribution
    assert back.accumulated_logdet == fwd.accumulated_logdet

    ar, _ = perturbed_layer(MaskedARLayer, rng, d=D, cond_dim=COND,
                            widths=(8,), mask_seed=9)
    mid = masked_ar_apply(state, cond, ar, direction="forward")
    rec = masked_ar_apply(mid, cond, ar, direction="inverse")
    assert np.max(np.abs(rec.vector - state.vector)) < 1e-9

    uar, _ = perturbed_layer(UncondARLayer, rng, d=D, widths=(8,), mask_seed=9)
    mid = uncond_ar_projection_apply(state, uar, direction="forward")
    rec = uncond_ar_projection_apply(mid, uar, direction="inverse")
    assert np.max(np.abs(rec.vector - state.vector)) < 1e-9


def test_batchnorm_apply_on_states(rng):
    store = ParameterStore()
    bn = BatchNormFlow(store, "bn", d=D)
    warm = rng.normal(0.0, 2.0, size=(32, D))
    with no_grad():
        bn.forward(Tensor(warm), mode="train")
    bn.mode = "eval"
    states = [FlowState(rng.normal(size=D)) for _ in range(5)]
    outs = batchnorm_apply(states, bn, direction="forward")
    backs = batchnorm_apply(outs, bn, direction="inverse")
    for s, b in zip(states, backs):
        assert np.max(np.abs(b.vector - s.vector)) < 1e-10
    assert all(o.accumulated_logdet == outs[0].accumulated_logdet for o in outs)


def test_conditioner_net_shapes(rng):
    store = ParameterStore()
    net = ConditionerNet(store, "n", in_dim=5, out_dim=4, rng=rng, widths=(8, 8))
    s, b = net(Tensor(rng.normal(size=(3, 5))))
    assert s.shape == (3, 4) and b.shape == (3, 4)
    # zero-initialized head
    assert np.array_equal(s.data, np.zeros((3, 4)))
    assert np.array_equal(b.data, np.zeros((3, 4)))