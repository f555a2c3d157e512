"""Stage-1 contracts: dequantization algebra, stack invertibility, exact
identity-initialization NLL, sampling, and the per-layer collect hook."""

import numpy as np
import pytest

from conftest import mini_runconfig
from urbanflows.errors import DataError, SamplingFault, TrainingFault
from urbanflows.flow_layers import LN_2PI
from urbanflows.numerics import Adam, ParameterStore, Tensor, no_grad
from urbanflows.pipeline import ModelBundle, train_zone_stage
from urbanflows.synthdata import make_dataset
from urbanflows.zone_flow import (
    ZoneFlowModel,
    ZoneMap,
    dequantize_zone_batch,
    nll_tensors,
    quantize_zone_batch,
    soft_labels,
)

N = 4
M = 4
D = N * N
COND = 5


class FixedU:
    """Deterministic stand-in rng: returns a constant dequantization draw."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def build_model(seed=0, k=2, perturb=0.0, widths=(8,)):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    model = ZoneFlowModel(store, "zone", D, COND, rng, k=k, widths=widths)
    if perturb:
        for name, t in store.items():
            t.data += rng.normal(0.0, perturb, size=t.shape)
    return model, store


def test_dequantize_values_and_range(rng):
    v = dequantize_zone_batch(np.zeros((1, N, N), dtype=int), M, FixedU(0.0))
    assert v.shape == (1, D)
    assert np.all(v == -0.5)                       # label 0, u=0
    v1 = dequantize_zone_batch(np.ones((1, N, N), dtype=int), M, FixedU(0.0))
    assert np.all(v1 == 1.0 / M - 0.5)
    v_rand = dequantize_zone_batch(rng.integers(0, M, (1, N, N)), M, rng)
    assert v_rand.min() >= -0.5 and v_rand.max() < 0.5


def test_dequantize_mean_monte_carlo(rng):
    # label 1 of M=4: mean over u is (1 + 1/2)/4 - 1/2 = -0.125
    draws = dequantize_zone_batch(np.ones((2000, N, N), dtype=int), M, rng)
    assert abs(draws.mean() + 0.125) < 0.002


def test_quantize_inverts_dequantize(rng):
    labels = rng.integers(0, M, (N, N))
    zm = ZoneMap(labels)
    for _ in range(20):
        v = dequantize_zone_batch(labels[None], M, rng)[0]
        assert ZoneMap(quantize_zone_batch(v, M, N)[0]) == zm
    # clamping at the edges
    assert ZoneMap(quantize_zone_batch(np.full(D, 10.0), M, N)[0]).labels.max() == M - 1
    assert ZoneMap(quantize_zone_batch(np.full(D, -10.0), M, N)[0]).labels.min() == 0


def test_quantize_zero_vector_yields_middle_label():
    zm = ZoneMap(quantize_zone_batch(np.zeros(D), M, N)[0])
    assert np.all(zm.labels == M // 2)


def test_soft_labels_track_hard_labels(rng):
    labels = rng.integers(0, M, (3, N, N))
    x = dequantize_zone_batch(labels, M, rng)
    soft = soft_labels(Tensor(x), M)
    hard = np.clip(np.floor((x + 0.5) * M), 0, M - 1)
    assert np.max(np.abs(soft.data - hard)) <= 1.0  # within one level
    assert soft.data.min() >= 0.0 and soft.data.max() <= M - 1


def test_zone_map_validation():
    with pytest.raises(DataError):
        ZoneMap(np.zeros((3, 4), dtype=int))
    with pytest.raises(DataError):
        ZoneMap(-np.ones((4, 4), dtype=int))
    with pytest.raises(DataError):
        ZoneMap(np.zeros((4, 4, 1), dtype=int))
    for not_integers in (np.full((4, 4), 1.7), np.ones((4, 4), dtype=bool)):
        with pytest.raises(DataError, match="integers"):
            ZoneMap(not_integers)


def test_identity_init_nll_is_exact(rng):
    model, _ = build_model()
    x = dequantize_zone_batch(rng.integers(0, M, (3, N, N)), M, rng)
    e = rng.normal(size=(3, COND))
    with no_grad():
        mean, per = nll_tensors(model, Tensor(x), Tensor(e),
                                mode="eval", update_stats=False)
    expect = 0.5 * (np.sum(x * x, axis=1) + D * LN_2PI)
    assert np.max(np.abs(per - expect)) < 1e-12


def test_forward_inverse_roundtrip_eval(rng):
    model, _ = build_model(perturb=0.2)
    e = Tensor(rng.normal(size=(6, COND)))
    z = rng.normal(size=(6, D))
    with no_grad():
        x = model.inverse(Tensor(z), e)
        z2, _ = model.forward(x, e, mode="eval", update_stats=False)
    assert np.max(np.abs(z2.data - z)) < 1e-8


def test_forward_logdet_matches_density_change(rng):
    # NLL(z) - logdet must equal NLL reported for x
    model, _ = build_model(perturb=0.2)
    e = Tensor(rng.normal(size=(2, COND)))
    x = Tensor(rng.normal(scale=0.2, size=(2, D)))
    with no_grad():
        z, ld = model.forward(x, e, mode="eval", update_stats=False)
        _, per = nll_tensors(model, x, e, mode="eval", update_stats=False)
    base = 0.5 * (np.sum(z.data ** 2, axis=1) + D * LN_2PI)
    assert np.allclose(per, base - ld.data)


def test_zone_nll_raises_training_fault_on_poisoned_params(rng):
    bundle = ModelBundle(mini_runconfig())
    bundle.store["zone.block0.coupling.out.w"].data[0, 0] = np.nan
    data = make_dataset(8, 4, 2, 2, seed=0)
    with pytest.raises(TrainingFault) as info:
        train_zone_stage(bundle, data, rng, steps=1)
    assert info.value.sample_index is not None
    # the replayed forward names the poisoned coupling, flat layer 0
    assert info.value.layer_index == 0


def test_sampling_and_trace(rng):
    model, _ = build_model(perturb=0.2, k=3)
    e = rng.normal(size=(1, COND))
    states = []
    xs, zs = model.sample(e, np.random.default_rng(5),
                          collect=lambda i, kind, s: states.append((i, s)))
    zm = ZoneMap(quantize_zone_batch(xs[0], M, N)[0])
    assert isinstance(zm, ZoneMap) and zm.labels.shape == (N, N)
    assert [i for i, _ in states] == list(range(len(model.layers) - 1, -1, -1))
    np.testing.assert_array_equal(zs, np.random.default_rng(5).standard_normal((1, D)))
    # deterministic under the seed
    xs2, _ = model.sample(e, np.random.default_rng(5))
    assert ZoneMap(quantize_zone_batch(xs2[0], M, N)[0]) == zm
    # the last collected state, in data coordinates, is the emitted sample
    assert ZoneMap(quantize_zone_batch(states[-1][1][0], M, N)[0]) == zm


def test_poisoned_layer_raises_sampling_fault_naming_layer(rng):
    model, store = build_model(perturb=0.1, k=2)
    # flat layers: coupling0 proj0 bn0 coupling1 proj1 bn1
    flat = [(kind, block) for kind, block, _, _ in model.layers]
    layer_index = flat.index(("condition_projection", 1))
    assert layer_index == 4
    store["zone.block1.proj.out.b"].data[D // 2] = np.inf   # a shift entry
    with pytest.raises(SamplingFault) as info:
        model.sample(rng.normal(size=(3, COND)), np.random.default_rng(1))
    assert info.value.layer_index == layer_index
    assert "layer 4" in str(info.value)
    assert "condition_projection of block 1" in str(info.value)


def eval_logp(model, x, e):
    """Per-sample eval-mode log p(x | e)."""
    with no_grad():
        _, nll = nll_tensors(model, Tensor(x), Tensor(e), mode="eval",
                             update_stats=False)
    return -nll


def test_sample_batch_scores_match_single_path(rng):
    model, _ = build_model(perturb=0.15)
    e = rng.normal(size=(8, COND))
    xs, zs = model.sample(e, np.random.default_rng(3))
    # scoring the continuous samples recovers the latent density exactly
    logp = eval_logp(model, xs, e)
    with no_grad():
        z2, ld = model.forward(Tensor(xs), Tensor(e), mode="eval",
                               update_stats=False)
    assert np.max(np.abs(z2.data - zs)) < 1e-8
    base = -0.5 * (np.sum(zs ** 2, axis=1) + D * LN_2PI)
    assert np.allclose(logp, base + ld.data)


def test_trained_model_scores_own_samples_like_heldout(rng):
    """After a short fit, drawn samples and held-out data should get
    statistically indistinguishable mean log-density (3 SE gate)."""
    model, store = build_model(seed=7, k=2, widths=(16,))
    data_rng = np.random.default_rng(42)
    # simple structured target: two-level checkerboards with noise
    base = np.indices((N, N)).sum(axis=0) % 2
    labels = np.stack([(base + data_rng.integers(0, 2)) % 2 * (M - 1)
                       for _ in range(300)])
    es = np.repeat(data_rng.normal(size=(1, COND)), 300, axis=0)
    opt = Adam(list(store.trainable_items()), lr=2e-3)
    for step in range(150):
        idx = data_rng.integers(0, 250, size=32)
        x = dequantize_zone_batch(labels[idx], M, data_rng)
        opt.zero_grad()
        mean, _ = nll_tensors(model, Tensor(x), Tensor(es[idx]), mode="train")
        mean.backward()
        opt.step()
    held = dequantize_zone_batch(labels[250:], M, data_rng)
    held_logp = eval_logp(model, held, es[250:])
    xs, _ = model.sample(es[:100], np.random.default_rng(9))
    own_logp = eval_logp(model, xs, es[:100])
    assert np.all(np.isfinite(own_logp))
    se = np.sqrt(held_logp.var() / held_logp.size + own_logp.var() / own_logp.size)
    assert abs(own_logp.mean() - held_logp.mean()) < 3 * se, (
        f"own {own_logp.mean():.3f} vs held {held_logp.mean():.3f} (se {se:.3f})"
    )
