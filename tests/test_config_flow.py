"""Stage-2 contracts: count dequantization, stack invertibility, traces,
conditioning through attention, and the joint fine-tuning objective."""

import numpy as np
import pytest

from composed_reference import tape_nodes, use_composed_layers
from conftest import dataset_of, mini_runconfig
from urbanflows.config_flow import (
    ConfigFlowModel,
    ConfigTensor,
    config_sample_batch,
    dequantize_config_batch,
    joint_loss,
    quantize_config_batch,
)
from urbanflows.errors import ConfigurationError, DataError, SamplingFault, TrainingFault
from urbanflows.flow_layers import LN_2PI
from urbanflows.fusion import FusionModule
from urbanflows.numerics import Adam, ParameterStore, Tensor, no_grad
from urbanflows.numerics.tape import _topo_order
from urbanflows.pipeline import (
    ModelBundle,
    dataset_arrays,
    generate_batch,
    train_config_stage,
)
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import info_vectors, make_dataset
from urbanflows.zone_flow import ZoneFlowModel, dequantize_zone_batch, nll_tensors

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
                            widths=widths, use_uncond_ar=use_uncond_ar)
    if perturb:
        for name, t in store.items():
            t.data += rng.normal(0.0, perturb, size=t.shape)
    return model, store


def test_dequantize_log1p_values():
    v0 = dequantize_config_batch(np.zeros((1, N, N, P), dtype=int), FixedU(0.0))
    assert v0.shape == (1, D)
    assert np.all(v0 == 0.0)
    v = dequantize_config_batch(np.full((1, N, N, P), 3, dtype=int), FixedU(0.5))
    # ln(1 + 3 + 0.5) = ln 4.5
    assert np.max(np.abs(v - 1.5040773967762742)) < 1e-15


def test_quantize_inverts_dequantize(rng):
    counts = rng.poisson(2.0, size=(N, N, P))
    counts[0, 0, 0] = 4000   # stress the float boundary at larger counts
    ct = ConfigTensor(counts)
    for _ in range(25):
        v = dequantize_config_batch(counts[None], rng)[0]
        assert ConfigTensor(quantize_config_batch(v, N, P)[0]) == ct
    # nonpositive latents quantize to empty cells
    assert ConfigTensor(quantize_config_batch(np.zeros(D), N, P)[0]).counts.sum() == 0
    assert ConfigTensor(quantize_config_batch(np.full(D, -3.0), N, P)[0]).counts.sum() == 0
    # overflow guard: huge latents do not wrap to negatives
    big = ConfigTensor(quantize_config_batch(np.full(D, 1e6), N, P)[0])
    assert big.counts.min() > 0


def test_config_tensor_validation():
    with pytest.raises(DataError):
        ConfigTensor(np.zeros((N, N + 1, P), dtype=int))
    with pytest.raises(DataError):
        ConfigTensor(-np.ones((N, N, P), dtype=int))
    for not_integers in (np.full((N, N, P), 2.9), np.ones((N, N, P), dtype=bool)):
        with pytest.raises(DataError, match="integers"):
            ConfigTensor(not_integers)
    ct = ConfigTensor(np.arange(N * N * P).reshape(N, N, P))
    hist = ct.counts.sum(axis=(0, 1))
    assert np.array_equal(hist, [ct.counts[:, :, k].sum() for k in range(P)])
    v = dequantize_config_batch(ct.counts[None], FixedU(0.0))[0]
    assert np.array_equal(quantize_config_batch(v[None], N, P).sum(axis=(1, 2))[0], hist)


def test_identity_init_nll_is_exact(rng):
    model, _ = build_model()
    x = dequantize_config_batch(rng.poisson(2.0, size=(3, N, N, P)), rng)
    cond = Tensor(rng.normal(size=(3, COND)))
    with no_grad():
        _, per = nll_tensors(model, Tensor(x), cond, mode="eval", update_stats=False)
    expect = 0.5 * (np.sum(x * x, axis=1) + D * LN_2PI)
    assert np.max(np.abs(per - expect)) < 1e-12


def test_zero_latent_generates_empty_configuration(rng):
    model, _ = build_model()   # identity init
    cond = rng.normal(size=(1, COND))
    with no_grad():
        x = model.inverse(Tensor(np.zeros((1, D))), Tensor(cond))
    ct = ConfigTensor(quantize_config_batch(x.data[0], N, P)[0])
    assert ct.counts.sum() == 0


def test_forward_inverse_roundtrip_eval(rng):
    # moderate perturbation: large conditioner outputs push exp(s) factors
    # toward e^5 per layer and float64 round-trips lose absolute precision
    model, _ = build_model(perturb=0.08, k=3)
    cond = Tensor(rng.normal(size=(5, COND)))
    z = rng.normal(size=(5, D))
    with no_grad():
        x = model.inverse(Tensor(z), cond)
        z2, _ = model.forward(x, cond, mode="eval", update_stats=False)
    assert np.max(np.abs(z2.data - z)) < 1e-8


def test_poisoned_ar_layer_raises_sampling_fault_within_cap(rng):
    model, store = build_model(perturb=0.1, k=2)
    # flat layers: mar0 uar0 bn0 mar1 uar1 bn1; inversion runs from the end
    store["config.block0.uar.out.b"].data[D] = np.inf   # shift of coordinate 0
    nets = [layer.net for kind, _, layer, _ in model.layers if kind != "batchnorm"]
    cond = Tensor(rng.normal(size=(3, COND)))
    with no_grad(), pytest.raises(SamplingFault) as info:
        model.inverse(Tensor(rng.normal(size=(3, D))), cond)
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


def eval_nll(model, counts, cond):
    """Eval-mode mean NLL with dequantization noise from a fixed seed."""
    x = dequantize_config_batch(counts, np.random.default_rng(0))
    with no_grad():
        mean, _ = nll_tensors(model, Tensor(x), model.condition_of(cond),
                              mode="eval", update_stats=False)
    return float(mean.item())


def test_nll_decreases_under_training(rng):
    model, store = build_model(perturb=0.0, k=1, widths=(16,))
    counts = rng.poisson(3.0, size=(64, N, N, P))
    cond = rng.normal(size=(64, COND))
    first = eval_nll(model, counts, cond)
    opt = Adam(list(store.trainable_items()), lr=2e-3)
    for step in range(60):
        x = dequantize_config_batch(counts, rng)
        opt.zero_grad()
        mean, _ = nll_tensors(model, Tensor(x), Tensor(cond), mode="train")
        mean.backward()
        opt.step()
    last = eval_nll(model, counts, cond)
    assert last < first


def test_config_nll_training_fault_reports_layer(rng):
    bundle = ModelBundle(mini_runconfig(k_config=2))
    # flat layers: mar0 uar0 bn0 mar1 uar1 bn1
    bundle.store["config.block1.mar.out.w"].data[0, 0] = np.inf
    before = bundle.store.snapshot()
    data = make_dataset(8, 4, 2, 2, seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingFault) as info:
            train_config_stage(bundle, data, rng, steps=1)
    assert info.value.sample_index is not None
    assert info.value.layer_index == 3
    # the failed step was rolled back
    for name, value in before.items():
        np.testing.assert_array_equal(bundle.store[name].data, value)


def test_stage2_zone_nll_training_fault_reports_layer(rng):
    """With ground-truth conditioning the zone NLL of the joint loss is the
    one that fails, and the fault names the poisoned zone coupling."""
    bundle = ModelBundle(mini_runconfig(use_sampled_u=False))
    bundle.store["zone.block0.coupling.out.w"].data[0, 0] = np.nan
    data = make_dataset(8, 4, 2, 2, seed=0)
    with pytest.raises(TrainingFault, match="non-finite zone NLL") as info:
        train_config_stage(bundle, data, rng, steps=1)
    assert info.value.sample_index is not None
    assert info.value.layer_index == 0


def test_stage2_sampled_zone_fault_is_a_training_fault(rng):
    """With the default sampled conditioning the zone inverse runs first,
    and a poisoned zone coupling sends it non-finite: the step ends in a
    ``TrainingFault`` naming that layer, and the store holds the last good
    step, as for any training fault."""
    bundle = ModelBundle(mini_runconfig())
    assert bundle.cfg.use_sampled_u
    data = make_dataset(8, 4, 2, 2, seed=0)
    good = []

    def poison_after_step_0(step, *_):
        bundle.store["zone.block0.coupling.out.w"].data[0, 0] = np.nan
        good.append(bundle.store.snapshot())

    with pytest.raises(TrainingFault, match="sampled zone map") as info:
        train_config_stage(bundle, data, rng, steps=3, log=poison_after_step_0)
    assert len(good) == 1
    assert info.value.layer_index == 0
    assert isinstance(info.value.__cause__, SamplingFault)
    assert sorted(good[0]) == bundle.store.names()
    for name, value in good[0].items():
        np.testing.assert_array_equal(bundle.store[name].data, value)


def perturbed_bundle(**overrides):
    """A mini bundle moved off the identity initialization."""
    bundle = ModelBundle(mini_runconfig(**overrides))
    rng = np.random.default_rng(21)
    for _, t in bundle.store.trainable_items():
        t.data += rng.normal(0.0, 0.1, size=t.shape)  # in place: 0-d ones stay arrays
    return bundle


def test_sampling_trace_structure():
    bundle = perturbed_bundle(k_config=2)
    rc = bundle.cfg
    samples = make_dataset(3, rc.n, rc.m, rc.p, seed=4)
    es = info_vectors(samples.context, samples.levels)
    _, cts, trace = generate_batch(bundle, es, np.random.default_rng(4), trace=True)
    # the latents: the zone draw comes first, then the config draw
    replay = np.random.default_rng(4)
    replay.standard_normal((3, rc.d_zone))
    z = replay.standard_normal((3, rc.d_config))
    assert len(cts) == 3
    assert len(trace) == 3 * rc.k_config + 1     # mar + uar + bn per block
    for _, _, states, counts in trace:
        assert len(states) == len(counts) == 3
    _, first_kind, first_states, _ = trace[0]
    assert first_kind == "latent"
    kinds = [kind for _, kind, _, _ in trace[1:]]
    assert kinds.count("masked_ar") == rc.k_config
    assert kinds.count("uncond_ar") == rc.k_config
    assert kinds.count("batchnorm") == rc.k_config
    _, _, last_states, last_counts = trace[-1]
    for b, ct in enumerate(cts):
        assert isinstance(ct, ConfigTensor)
        assert np.array_equal(first_states[b], z[b])
        # final state quantizes to the emitted tensor, histograms included
        assert ConfigTensor(quantize_config_batch(last_states[b], rc.n, rc.p)[0]) == ct
        assert np.array_equal(last_counts[b].sum(axis=(0, 1)), ct.counts.sum(axis=(0, 1)))
    # determinism, and tracing leaves the samples as they are
    _, cts2, none = generate_batch(bundle, es, np.random.default_rng(4))
    assert none is None
    assert cts2 == cts


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
    zone = ZoneFlowModel(store, "zone", d_zone, info, rng, k=1, widths=(6,))
    fusion = FusionModule(store, "fusion", n, m, info, heads=1, rng=rng,
                          stem_channels=2, n_cx=2)
    config = ConfigFlowModel(store, "config", d_cfg, m * info, rng, k=1,
                             widths=(6,), attend=fusion.attend)
    return store, zone, fusion, config, (n, m, p, info)


def test_joint_loss_parts_and_determinism():
    store, zone, fusion, config, (n, m, p, info) = mini_pipeline()
    rng = np.random.default_rng(8)
    ds = dataset_of(range(100, 106), [i % 5 for i in range(6)], n, m, p)
    es = info_vectors(ds.context, ds.levels)
    zl, cc = ds.zones, ds.counts
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


@pytest.mark.parametrize("use_sampled_u", [True, False])
def test_joint_loss_matches_composed_layers(use_sampled_u, monkeypatch):
    """The joint loss of both stages' one-node layers (and the one-node
    zone inverse of the sampled U) is bit for bit the composed layers',
    running statistics included, with every gradient within atol 1e-12."""
    bundle = perturbed_bundle(k_zone=2, k_config=2)
    rc = bundle.cfg
    store = bundle.store
    for name, t in store.items():
        if name.endswith("running_var"):
            t.data = np.random.default_rng(5).uniform(0.5, 2.0, size=t.shape)
    samples = make_dataset(37, rc.n, rc.m, rc.p, seed=6)
    es, zones, counts, _ = dataset_arrays(samples)
    rng = np.random.default_rng(7)
    zone_x = dequantize_zone_batch(zones, rc.m, rng)
    config_x = dequantize_config_batch(counts, rng)
    z = rng.standard_normal((37, rc.d_zone))
    start = store.snapshot()

    def run():
        store.restore(start)
        store.zero_grad()
        total, parts = joint_loss(bundle.zone, bundle.fusion, bundle.config, es, zone_x,
                                  config_x, z, rc.lambda_zone, zone_labels=zones,
                                  update_stats=True, use_sampled_u=use_sampled_u,
                                  rng=np.random.default_rng(8))
        nodes = tape_nodes(total)
        total.backward()
        grads = {name: t.grad for name, t in store.items()}
        return total.data, parts, store.snapshot(), grads, nodes

    got = run()
    use_composed_layers(monkeypatch)
    want = run()
    # both stacks ran the patched steps, not their own one-node ones
    assert want[4] > got[4]
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    for name, value in got[2].items():
        assert np.array_equal(value, want[2][name]), name
    for name, a in got[3].items():
        r = want[3][name]
        assert (a is None) == (r is None), name
        if a is not None:
            np.testing.assert_allclose(a, r, rtol=0.0, atol=1e-12, err_msg=name)


def test_train_config_stage_updates_all_namespaces():
    bundle = ModelBundle(mini_runconfig())
    rc = bundle.cfg
    store = bundle.store
    samples = dataset_of(range(200, 208), [i % 5 for i in range(8)], rc.n, rc.m, rc.p)
    before = store.snapshot()
    # at exact identity init the config NLL ignores its conditioning (the
    # masked heads are zero), so fusion gradients only appear from step 2 on
    history = train_config_stage(bundle, samples, np.random.default_rng(8), steps=3)
    assert np.isfinite(history[-1][1])
    moved = {name.split(".")[0] for name, t in store.trainable_items()
             if not np.array_equal(t.data, before[name])}
    assert {"zone", "fusion", "config"} <= moved


def test_tape_node_counts_of_default_losses():
    """A stack's forward is one ``affine_step`` or ``batchnorm_flow`` node
    per layer on the packed state [h | log-det], one per permutation
    between blocks and two that split off z and the log-det (plus the
    [x | 0] that starts the state, when x needs a gradient); the
    coupling-family and batch-norm inverses of the sampled U are one node
    each; the extractor is one node per ConvNeXt layer and 11 more.  On
    the default config at B=32 the stage-2 joint loss makes 133 nodes
    (within 133) and the stage-1 NLL 32 (within 35).  The extractor
    composed from NCHW tape ops (about 14 nodes per ConvNeXt layer) gave
    177.  Splitting each layer's [y | log-det] with two slices and adding
    the log-det with a third gave 265 and 85; layers composed from tape ops
    around a one-node conditioner pass gave 599 and 226; passes composed
    from tape ops too (13 to 15 nodes each) gave 951 and 346."""
    rc = RunConfig().validate()
    bundle = ModelBundle(rc)
    samples = make_dataset(rc.batch_size, rc.n, rc.m, rc.p, seed=1)
    es, zones, counts, _ = dataset_arrays(samples)
    rng = np.random.default_rng(0)
    zone_x = dequantize_zone_batch(zones, rc.m, rng)
    config_x = dequantize_config_batch(counts, rng)
    z = rng.standard_normal((rc.batch_size, rc.d_zone))
    total, _ = joint_loss(bundle.zone, bundle.fusion, bundle.config, es, zone_x,
                          config_x, z, rc.lambda_zone, zone_labels=zones,
                          update_stats=False, rng=rng)
    zone_mean, _ = nll_tensors(bundle.zone, Tensor(zone_x), Tensor(es),
                               mode="train", update_stats=False)

    def nodes(loss):
        return sum(1 for n in _topo_order(loss) if n._parents)

    assert nodes(total) <= 133
    assert nodes(zone_mean) <= 35
