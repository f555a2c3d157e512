"""Each encoding has one batched implementation: the info vector, the
guidance-level check and the zone and config quantizers.  The batched
functions are checked bit for bit against the per-sample references in
``encoding_reference``, and their callers are checked to make one call per
batch, not one per sample."""

import numpy as np
import pytest

import encoding_reference as ref
from conftest import mini_runconfig
from urbanflows import config_flow, pipeline
from urbanflows.config_flow import (
    dequantize_config_batch,
    joint_loss,
    quantize_config_batch,
)
from urbanflows.errors import ConfigurationError, DataError
from urbanflows.numerics import Tensor
from urbanflows.pipeline import ModelBundle, dataset_arrays, generate_batch
from urbanflows.runconfig import GUIDANCE_LEVELS, RunConfig, check_guidance_levels
from urbanflows.synthdata import build_info_vector, generate_sample, info_vectors, make_dataset
from urbanflows.zone_flow import dequantize_zone_batch, quantize_zone_batch

SEEDS = (1, 7, 1101)
# (N, M, P): the defaults and a small set
DIMS = ((8, 4, 5), (4, 3, 3))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,m,p", DIMS)
def test_info_vectors_match_per_sample_reference(seed, n, m, p):
    samples = make_dataset(23, n, m, p, seed=seed)
    want = np.concatenate([ref.build_info_vector(s.context, s.green_level)
                           for s in samples])
    feats = np.stack([s.context.node_features for s in samples])
    got = info_vectors(feats, [s.green_level for s in samples])
    assert got.shape == (23, RunConfig(n=n, m=m, p=p).info_dim) == (23, ref.info_dim(p))
    assert got.tobytes() == want.tobytes()
    assert dataset_arrays(samples)[0].tobytes() == want.tobytes()
    for s, row in zip(samples, want):
        one = build_info_vector(s.context, np.int64(s.green_level))
        assert one.shape == (1, len(row)) and one.tobytes() == row.tobytes()


@pytest.mark.parametrize("bad", [-1, GUIDANCE_LEVELS, 7, 1.5, 2.0, True, "2", None])
def test_one_level_check_rejects_every_non_level(bad):
    sample = generate_sample(3, 4, 2, 2, 0)
    with pytest.raises(DataError, match="guidance level") as info:
        build_info_vector(sample.context, bad)
    assert "out of range" in str(info.value)
    with pytest.raises(DataError, match="guidance level.*out of range"):
        check_guidance_levels(bad)
    with pytest.raises(ConfigurationError, match="guidance level.*out of range"):
        generate_sample(3, 4, 2, 2, bad)


def test_level_check_accepts_integer_levels_of_any_width():
    for level in range(GUIDANCE_LEVELS):
        for value in (level, np.int64(level), np.uint8(level)):
            assert check_guidance_levels(value) == level
    levels = np.arange(GUIDANCE_LEVELS, dtype=np.int32)
    assert np.array_equal(check_guidance_levels(levels), levels)
    assert check_guidance_levels(np.zeros(0, dtype=np.int64)).size == 0
    with pytest.raises(DataError, match="guidance level.*out of range"):
        check_guidance_levels(np.array([0, 1, 5]))


@pytest.mark.parametrize("ragged", [[[1], [2, 3]], [1, [2]], [[0, 1], 2]])
def test_level_check_rejects_ragged_levels_with_its_own_error(ragged):
    """Ragged nesting used to escape as NumPy's "inhomogeneous shape"
    ValueError instead of the caller's error type."""
    with pytest.raises(DataError, match="guidance level.*out of range"):
        check_guidance_levels(ragged)
    with pytest.raises(ConfigurationError, match="guidance level.*out of range"):
        check_guidance_levels(ragged, error=ConfigurationError)
    feats = np.stack([generate_sample(i, 4, 2, 2, 1).context.node_features
                      for i in range(2)])
    with pytest.raises(DataError, match="guidance level.*out of range"):
        info_vectors(feats, ragged)


def _dequantized_dataset(seed, n, m, p):
    samples = make_dataset(30, n, m, p, seed=seed)
    rng = np.random.default_rng(seed)
    zones = np.stack([s.zones.labels for s in samples])
    counts = np.stack([s.config.counts for s in samples])
    return dequantize_zone_batch(zones, m, rng), dequantize_config_batch(counts, rng)


def _outside_the_clamps(rng, n, p):
    """Zone vectors spread well past [-0.5, 0.5] and config vectors past
    both 0 and the overflow guard, with exact cut points mixed in."""
    zone = rng.normal(0.0, 2.0, size=(40, n * n))
    zone.flat[::7] = -0.5
    zone.flat[3::11] = 0.5
    config = rng.uniform(-5.0, 2.0 * ref.MAX_LOG_COUNT, size=(40, n * n * p))
    config.flat[::5] = np.log1p(np.arange(config.flat[::5].size) % 9)
    return zone, config


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,m,p", DIMS)
def test_quantizers_match_per_sample_reference(seed, n, m, p):
    xz, xc = _dequantized_dataset(seed, n, m, p)
    rz, rc = _outside_the_clamps(np.random.default_rng(seed), n, p)
    for zone in (xz, rz):
        want = np.stack([ref.quantize_zone(v, m, n) for v in zone])
        got = quantize_zone_batch(zone, m, n)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        for v, row in zip(zone, want):
            assert quantize_zone_batch(v, m, n)[0].tobytes() == row.tobytes()
    for config in (xc, rc):
        want = np.stack([ref.quantize_config(v, n, p) for v in config])
        got = quantize_config_batch(config, n, p)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        hists = np.stack([ref.category_histogram_of(v, n, p) for v in config])
        assert got.sum(axis=(1, 2)).tobytes() == hists.tobytes()
        for v, row in zip(config, want):
            assert quantize_config_batch(v, n, p)[0].tobytes() == row.tobytes()


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(vecs, *args):
        calls.append(len(vecs))
        return real(vecs, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_generate_batch_quantizes_once_per_block_and_trace_step(monkeypatch):
    rc = mini_runconfig(k_config=2)
    bundle = ModelBundle(rc)
    rng = np.random.default_rng(4)
    for _, t in bundle.store.trainable_items():
        t.data += rng.normal(0.0, 0.1, size=t.shape)
    es = dataset_arrays(make_dataset(6, rc.n, rc.m, rc.p, seed=2))[0]
    zone_calls = _counting(monkeypatch, pipeline, "quantize_zone_batch")
    config_calls = _counting(monkeypatch, pipeline, "quantize_config_batch")
    zone_maps, configs, traces = generate_batch(bundle, es, np.random.default_rng(5),
                                                trace=True)
    assert zone_calls == [6]
    assert config_calls == [6] * (1 + len(traces[0]))   # the configs, then each step

    z_zone = np.random.default_rng(5).standard_normal((6, bundle.zone.d))
    xz, _ = bundle.zone.sample(es, None, z=z_zone)
    for x, zm, ct, trace in zip(xz, zone_maps, configs, traces):
        assert zm.labels.tobytes() == ref.quantize_zone(x, rc.m, rc.n).tobytes()
        assert ct.counts.tobytes() == ref.quantize_config(trace[-1].state, rc.n, rc.p).tobytes()
        for step in trace:
            want = ref.category_histogram_of(step.state, rc.n, rc.p)
            assert step.histogram.tobytes() == want.tobytes()


def test_joint_loss_takes_hard_labels_from_the_batched_quantizer(monkeypatch):
    rc = mini_runconfig()
    bundle = ModelBundle(rc)
    samples = make_dataset(5, rc.n, rc.m, rc.p, seed=3)
    es, zones, counts, _ = dataset_arrays(samples)
    rng = np.random.default_rng(0)
    z_fixed = rng.standard_normal((5, bundle.zone.d))
    calls = _counting(monkeypatch, config_flow, "quantize_zone_batch")
    seen = []
    real_embed = bundle.fusion.embed
    monkeypatch.setattr(bundle.fusion, "embed",
                        lambda hard, *a, **kw: seen.append(hard) or real_embed(hard, *a, **kw))
    joint_loss(bundle.zone, bundle.fusion, bundle.config, es,
               dequantize_zone_batch(zones, rc.m, rng), dequantize_config_batch(counts, rng),
               z_fixed, rc.lambda_zone, mode="eval")
    assert calls == [5]
    u = bundle.zone.inverse(Tensor(z_fixed), Tensor(es)).data
    want = np.stack([ref.quantize_zone(v, rc.m, rc.n) for v in u])
    assert seen[0].tobytes() == want.tobytes()
