"""Stage-2 contracts: count dequantization, stack invertibility, traces,
conditioning through attention, and the joint fine-tuning objective."""

import numpy as np
import pytest

from urbanflows.config_flow import (
    ConfigFlowModel,
    ConfigTensor,
    category_histogram_of,
    config_nll,
    config_sample,
    config_sample_batch,
    dequantize_config,
    dequantize_config_batch,
    joint_finetune_step,
    joint_loss,
    nll_tensors_config,
    quantize_config,
)
from urbanflows.errors import ConfigurationError, DataError, SamplingFault, TrainingFault
from urbanflows.flow_layers import LN_2PI
from urbanflows.fusion import FusionModule
from urbanflows.numerics import Adam, ParameterStore, Tensor, no_grad
from urbanflows.synthdata import build_info_vector, generate_sample
from urbanflows.zone_flow import ZoneFlowModel, dequantize_zone_batch

N = 4
P = 3
D = N * N * P
COND = 9       # M * attention dim in the full pipeline; any width works here


class FixedU:
    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def build_model(seed=0, k=2, perturb=0.0, widths=(10,), cond_dim=COND,
                use_uncond_ar=True):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    model = ConfigFlowModel(store, "config", D, cond_dim, rng, k=k,
                            widths=widths, use_uncond_ar=use_uncond_ar,
                            n=N, p=P)
    if perturb:
        for name, t in store.items():
            t.data = t.data + rng.normal(0.0, perturb, size=t.shape)
    return model, store


def test_dequantize_log1p_values():
    ct = ConfigTensor(np.zeros((N, N, P), dtype=int))
    assert np.all(dequantize_config(ct, FixedU(0.0)) == 0.0)
    ct3 = ConfigTensor(np.full((N, N, P), 3, dtype=int))
    v = dequantize_config(ct3, FixedU(0.5))
    # ln(1 + 3 + 0.5) = ln 4.5
    assert np.max(np.abs(v - 1.5040773967762742)) < 1e-15


def test_quantize_inverts_dequantize(rng):
    counts = rng.poisson(2.0, size=(N, N, P))
    counts[0, 0, 0] = 4000   # stress the float boundary at larger counts
    ct = ConfigTensor(counts)
    for _ in range(25):
        v = dequantize_config(ct, rng)
        assert quantize_config(v, N, P) == ct
    # nonpositive latents quantize to empty cells
    assert quantize_config(np.zeros(D), N, P).counts.sum() == 0
    assert quantize_config(np.full(D, -3.0), N, P).counts.sum() == 0
    # overflow guard: huge latents do not wrap to negatives
    big = quantize_config(np.full(D, 1e6), N, P)
    assert big.counts.min() > 0


def test_config_tensor_validation():
    with pytest.raises(DataError):
        ConfigTensor(np.zeros((N, N + 1, P), dtype=int))
    with pytest.raises(DataError):
        ConfigTensor(-np.ones((N, N, P), dtype=int))
    ct = ConfigTensor(np.arange(N * N * P).reshape(N, N, P))
    assert np.array_equal(ct.category_histogram(),
                          ct.counts.sum(axis=(0, 1)))
    assert np.array_equal(category_histogram_of(dequantize_config(ct, FixedU(0.0)), N, P),
                          ct.category_histogram())


def test_identity_init_nll_is_exact(rng):
    model, _ = build_model()
    x = dequantize_config_batch(rng.poisson(2.0, size=(3, N, N, P)), rng)
    cond = Tensor(rng.normal(size=(3, COND)))
    with no_grad():
        _, per = nll_tensors_config(model, Tensor(x), cond,
                                    mode="eval", update_stats=False)
    expect = 0.5 * (np.sum(x * x, axis=1) + D * LN_2PI)
    assert np.max(np.abs(per - expect)) < 1e-12


def test_zero_latent_generates_empty_configuration(rng):
    model, _ = build_model()   # identity init
    cond = rng.normal(size=(1, COND))
    with no_grad():
        x = model.inverse(Tensor(np.zeros((1, D))), Tensor(cond), mode="eval")
    ct = quantize_config(x.data[0], N, P)
    assert ct.counts.sum() == 0


def test_forward_inverse_roundtrip_eval(rng):
    # moderate perturbation: large conditioner outputs push exp(s) factors
    # toward e^5 per layer and float64 round-trips lose absolute precision
    model, _ = build_model(perturb=0.08, k=3)
    cond = Tensor(rng.normal(size=(5, COND)))
    z = rng.normal(size=(5, D))
    with no_grad():
        x = model.inverse(Tensor(z), cond, mode="eval")
        z2, _ = model.forward(x, cond, mode="eval", update_stats=False)
    assert np.max(np.abs(z2.data - z)) < 1e-8


def test_poisoned_ar_layer_raises_sampling_fault_within_cap(rng):
    model, store = build_model(perturb=0.1, k=2)
    # flat layers: mar0 uar0 bn0 mar1 uar1 bn1; inversion runs from the end
    store["config.block0.uar.out.b"].data[D] = np.inf   # shift of coordinate 0
    nets = [layer.net for kind, _, layer, _ in model.layers if kind != "batchnorm"]
    cond = Tensor(rng.normal(size=(3, COND)))
    with no_grad(), pytest.raises(SamplingFault) as info:
        model.inverse(Tensor(rng.normal(size=(3, D))), cond, mode="eval")
    assert info.value.layer_index == 1
    calls = [net.calls for net in nets]
    assert calls[0] == 0                          # mar0 is never reached
    assert calls[1] == D + 1                      # the poisoned layer hits the cap
    assert all(2 <= c <= D + 1 for c in calls[2:])


def test_reversal_changes_coordinates_between_blocks(rng):
    # with k=2 the second block must see reversed coordinates
    model, _ = build_model(perturb=0.2, k=2)
    layouts = [layout for _, _, _, layout in model.layers]
    assert np.array_equal(layouts[0], np.arange(D))
    assert np.array_equal(layouts[3], np.arange(D)[::-1])


def test_nll_decreases_under_training(rng):
    model, store = build_model(perturb=0.0, k=1, widths=(16,))
    counts = rng.poisson(3.0, size=(64, N, N, P))
    cond = rng.normal(size=(64, COND))
    batch = [(ConfigTensor(c), e) for c, e in zip(counts, cond)]
    first = config_nll(model, batch, np.random.default_rng(0),
                       mode="eval", update_stats=False)
    opt = Adam(list(store.trainable_items()), lr=2e-3)
    for step in range(60):
        x = dequantize_config_batch(counts, rng)
        opt.zero_grad()
        mean, _ = nll_tensors_config(model, Tensor(x), Tensor(cond), mode="train")
        mean.backward()
        opt.step()
    last = config_nll(model, batch, np.random.default_rng(0),
                      mode="eval", update_stats=False)
    assert last < first


def test_config_nll_training_fault_reports_layer(rng):
    model, store = build_model(perturb=0.1, k=2)
    store["config.block1.mar.out.w"].data[0, 0] = np.inf
    counts = rng.poisson(2.0, size=(4, N, N, P))
    cond = rng.normal(size=(4, COND))
    batch = [(ConfigTensor(c), e) for c, e in zip(counts, cond)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingFault) as info:
            config_nll(model, batch, rng)
    assert info.value.sample_index is not None
    assert info.value.layer_index is not None


def test_sampling_trace_structure(rng):
    model, _ = build_model(perturb=0.1, k=2)
    # no attention here: condition_of just flattens the (M, D) fused rows
    cond = rng.normal(size=(3, COND // 3))
    ct, trace = config_sample(model, cond, np.random.default_rng(4), trace=True)
    assert isinstance(ct, ConfigTensor)
    assert len(trace) == 3 * model.k + 1       # mar + uar + bn per block
    assert trace[0].layer_type == "latent"
    kinds = [s.layer_type for s in trace.steps[1:]]
    assert kinds.count("masked_ar") == model.k
    assert kinds.count("uncond_ar") == model.k
    assert kinds.count("batchnorm") == model.k
    # final state quantizes to the emitted tensor, histograms included
    assert quantize_config(trace[-1].state, N, P) == ct
    assert np.array_equal(trace[-1].histogram, ct.category_histogram())
    # determinism
    ct2, _ = config_sample(model, cond, np.random.default_rng(4), trace=False)
    assert ct2 == ct


def test_sample_batch_consistency(rng):
    model, _ = build_model(perturb=0.1, k=2)
    # cond_dim = 9 = 3 rows x 3 dims flattened
    cs = rng.normal(size=(6, 3, 3))
    xs, zs = config_sample_batch(model, cs, np.random.default_rng(2))
    assert xs.shape == (6, D) and zs.shape == (6, D)
    with no_grad():
        z2, _ = model.forward(Tensor(xs), model.condition_of(cs),
                              mode="eval", update_stats=False)
    assert np.max(np.abs(z2.data - zs)) < 1e-8


def mini_pipeline(seed=3):
    """Zone + fusion + config bundle small enough for FD-grade tests."""
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    n, m, p = 4, 2, 2
    d_zone, d_cfg = n * n, n * n * p
    info = 2 * (p + 2) + 5
    zone = ZoneFlowModel(store, "zone", d_zone, info, rng, k=1, widths=(6,),
                         n=n, m=m)
    fusion = FusionModule(store, "fusion", n, m, info, heads=1, rng=rng,
                          stem_channels=2, n_cx=2)
    config = ConfigFlowModel(store, "config", d_cfg, m * info, rng, k=1,
                             widths=(6,), n=n, p=p, attend=fusion.attend)
    return store, zone, fusion, config, (n, m, p, info)


def test_joint_loss_parts_and_determinism():
    store, zone, fusion, config, (n, m, p, info) = mini_pipeline()
    rng = np.random.default_rng(8)
    samples = [generate_sample(100 + i, n, m, p, i % 5) for i in range(6)]
    es = np.concatenate([build_info_vector(s.context, s.green_level)
                         for s in samples])
    zl = np.stack([s.zones.labels for s in samples])
    cc = np.stack([s.config.counts for s in samples])
    zone_x = dequantize_zone_batch(zl, m, np.random.default_rng(1))
    config_x = dequantize_config_batch(cc, np.random.default_rng(2))
    z_fixed = np.random.default_rng(3).standard_normal((6, zone.d))
    total, parts = joint_loss(zone, fusion, config, es, zone_x, config_x,
                              z_fixed, lam=0.1, zone_labels=zl, mode="eval",
                              update_stats=False)
    assert abs(parts["total"] - (parts["config_nll"] + 0.1 * parts["zone_nll"])) < 1e-9
    total2, parts2 = joint_loss(zone, fusion, config, es, zone_x, config_x,
                                z_fixed, lam=0.1, zone_labels=zl, mode="eval",
                                update_stats=False)
    assert parts2 == parts


def test_joint_finetune_step_updates_all_namespaces():
    store, zone, fusion, config, (n, m, p, info) = mini_pipeline()
    rng = np.random.default_rng(8)
    samples = [generate_sample(200 + i, n, m, p, i % 5) for i in range(8)]
    es = np.concatenate([build_info_vector(s.context, s.green_level)
                         for s in samples])
    zl = np.stack([s.zones.labels for s in samples])
    cc = np.stack([s.config.counts for s in samples])
    before = store.snapshot()
    opt = Adam(list(store.trainable_items()), lr=1e-3)
    # at exact identity init the config NLL ignores its conditioning (the
    # masked heads are zero), so fusion gradients only appear from step 2 on
    for _ in range(3):
        parts = joint_finetune_step(zone, fusion, config, (es, zl, cc),
                                    lam=0.1, rng=rng, optimizer=opt)
    assert np.isfinite(parts["total"])
    moved = {name.split(".")[0] for name, t in store.trainable_items()
             if not np.array_equal(t.data, before[name])}
    assert {"zone", "fusion", "config"} <= moved