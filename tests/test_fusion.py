"""Information-fusion contracts: partition masks, the ConvNeXt-style
extractor, semantic projection, attention, and the assembled conditioning
path."""

import numpy as np
import pytest

from urbanflows.errors import ConfigurationError, DataError, DimensionError, ModeError
from urbanflows.fusion import (
    FusionModule,
    GeoExtractor,
    multi_head_attention_batch,
    partition_zones_batch,
    semantic_projection_batch,
)
from urbanflows.numerics import (
    ParameterStore,
    Tensor,
    max_relative_error,
    no_grad,
    numerical_gradient,
)

N = 4
M = 3
DIM = 6


def test_partition_masks_are_exact_indicators(rng):
    labels = rng.integers(0, M, (2, N, N))
    masks = partition_zones_batch(labels, M)
    assert masks.shape == (2, M, N, N)
    # one-hot per cell
    assert np.array_equal(masks.sum(axis=1), np.ones((2, N, N)))
    for b in range(2):
        for k in range(M):
            assert np.array_equal(masks[b, k], (labels[b] == k).astype(float))
    # a batch of one gives the same masks as the row of a larger batch
    assert np.array_equal(partition_zones_batch(labels[1:], M)[0], masks[1])


def test_partition_rejects_out_of_range_labels():
    bad = np.full((N, N), M, dtype=np.int64)
    with pytest.raises(DataError):
        partition_zones_batch(bad[None], M)
    with pytest.raises(DataError):
        partition_zones_batch(-1 - bad[None], M)


def make_extractor(rng, out_dim=DIM, stem=2, n_cx=2, drop_path=0.0):
    store = ParameterStore()
    ext = GeoExtractor(store, "geo", out_dim, rng, stem_channels=stem,
                       n_cx=n_cx, drop_path=drop_path)
    return ext, store


def test_extractor_shapes_and_determinism(rng):
    ext, _ = make_extractor(rng)
    x = Tensor(rng.random((3, 1, N, N)))
    with no_grad():
        a = ext.forward(x, mode="eval")
        b = ext.forward(x, mode="eval")
    assert a.shape == (3, DIM)
    assert np.array_equal(a.data, b.data)
    # channel doubling: final channels = stem * 2^(n_cx - 1)
    assert ext.final_channels == 2 * 2


def test_extractor_rejects_bad_grids(rng):
    ext, _ = make_extractor(rng, n_cx=3)   # needs side divisible by 4
    with pytest.raises(ConfigurationError):
        with no_grad():
            ext.forward(Tensor(rng.random((1, 1, 6, 6))))
    with pytest.raises(DimensionError):
        with no_grad():
            ext.forward(Tensor(rng.random((1, N, N))))


def test_extractor_rejects_unknown_modes(rng):
    """A misspelt mode used to run the eval path, drop-path off."""
    ext, _ = make_extractor(rng, drop_path=0.5)
    x = Tensor(rng.random((2, 1, N, N)))
    for mode in ("Train", "inference"):
        with pytest.raises(ModeError, match=repr(mode)):
            with no_grad():
                ext.forward(x, mode=mode, rng=np.random.default_rng(1))


def test_extractor_drop_path_is_stochastic_in_train_mode(rng):
    ext, _ = make_extractor(rng, drop_path=0.5)
    x = Tensor(rng.random((8, 1, N, N)))
    with no_grad():
        a = ext.forward(x, mode="train", rng=np.random.default_rng(1))
        b = ext.forward(x, mode="train", rng=np.random.default_rng(2))
        c = ext.forward(x, mode="eval")
        d = ext.forward(x, mode="eval")
    assert not np.array_equal(a.data, b.data)
    assert np.array_equal(c.data, d.data)
    with pytest.raises(ConfigurationError):
        with no_grad():
            ext.forward(x, mode="train")   # no rng supplied


def test_extractor_gradients_match_finite_differences(rng):
    ext, store = make_extractor(rng, out_dim=3, stem=2, n_cx=2)
    # nudge LayerScale away from ~0 so block gradients are visible
    store["geo.cx0.ls"].data[:] = 0.3
    store["geo.cx1.ls"].data[:] = 0.3
    x = rng.random((2, 1, N, N))
    weight = rng.normal(size=(2, 3))

    def loss_fn():
        out = ext.forward(Tensor(x), mode="eval")
        return (out * Tensor(weight)).sum()

    store.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for name in ("geo.stem.w", "geo.cx0.dw.w", "geo.cx1.up.w", "geo.down0.w",
                 "geo.head.w", "geo.cx0.ls", "geo.stem.ln.gamma"):
        t = store[name]

        def probe(flat, t=t):
            old = t.data.copy()
            t.data = flat.reshape(t.shape)
            with no_grad():
                out = ext.forward(Tensor(x), mode="eval")
                val = float((out.data * weight).sum())
            t.data = old
            return val

        num = numerical_gradient(probe, t.data.ravel()).reshape(t.shape)
        worst = max(worst, max_relative_error(t.grad, num))
    assert worst < 1e-5, f"worst extractor grad err {worst:.2e}"


def test_semantic_projection_properties(rng):
    masks = partition_zones_batch(rng.integers(0, M, (2, N, N)), M)
    e = Tensor(rng.normal(size=(2, DIM)))
    o = Tensor(rng.normal(size=(2, DIM)))
    w_z = Tensor(rng.normal(size=(N, 1)))
    w_s = Tensor(np.array(1.0))
    w_g = Tensor(np.array(1.0))
    c, zw = semantic_projection_batch(masks, e, o, w_z, w_s, w_g)
    assert c.shape == (2, M, DIM)
    assert np.allclose(zw.data.sum(axis=1), 1.0)
    assert np.max(np.abs(zw.data.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(zw.data > 0)
    # every zone row is the shared content scaled by its softmax weight
    content = e.data + o.data
    for b in range(2):
        for k in range(M):
            assert np.allclose(c.data[b, k], zw.data[b, k] * content[b])
    # scalar weights really gate the two sources
    c2, _ = semantic_projection_batch(masks, e, o, w_z, Tensor(np.array(0.0)), w_g)
    for b in range(2):
        assert np.allclose(c2.data[b] / zw.data[b][:, None], o.data[b])


def test_attention_shapes_heads_and_errors(rng):
    c = Tensor(rng.normal(size=(2, M, DIM)))
    mats = [Tensor(rng.normal(size=(DIM, DIM)) / np.sqrt(DIM)) for _ in range(4)]
    out1 = multi_head_attention_batch(c, 1, *mats)
    out2 = multi_head_attention_batch(c, 2, *mats)
    assert out1.shape == (2, M, DIM) and out2.shape == (2, M, DIM)
    assert not np.allclose(out1.data, out2.data)   # head split changes mixing
    with pytest.raises(ConfigurationError):
        multi_head_attention_batch(c, 4, *mats)    # 6 % 4 != 0


def test_attention_is_permutation_equivariant(rng):
    # self-attention over zone rows commutes with row permutations
    c = rng.normal(size=(1, M, DIM))
    mats = [Tensor(rng.normal(size=(DIM, DIM)) / np.sqrt(DIM)) for _ in range(4)]
    perm = np.array([2, 0, 1])
    out = multi_head_attention_batch(Tensor(c), 2, *mats).data
    out_p = multi_head_attention_batch(Tensor(c[:, perm]), 2, *mats).data
    assert np.allclose(out[:, perm], out_p, atol=1e-12)


def test_fusion_module_condition_path(rng):
    store = ParameterStore()
    fm = FusionModule(store, "fusion", n=N, m=M, out_dim=DIM, heads=2,
                      rng=rng, stem_channels=2, n_cx=2)
    labels = rng.integers(0, M, (2, N, N))
    imgs = Tensor(labels[:, None].astype(np.float64) / (M - 1))
    e = Tensor(rng.normal(size=(2, DIM)))
    with no_grad():
        c = fm.embed(labels, e)
        c_given = fm.embed(labels, e, imgs)
        a_flat = fm.attend(c).reshape(2, M * DIM)
        content = e.data + fm.extract(imgs).data
    # the default extractor images are the labels rescaled into [0, 1]
    assert np.array_equal(c_given.data, c.data)
    assert c.shape == (2, M, DIM)
    assert a_flat.shape == (2, M * DIM)
    # the zone rows are the content scaled by zone weights that sum to 1
    assert np.allclose(c.data.sum(axis=1), content)
    # scalar source weights start at 1
    assert float(store["fusion.ws"].data) == 1.0
    assert float(store["fusion.wg"].data) == 1.0


def test_fusion_ablation_flags(rng):
    e = Tensor(rng.normal(size=(2, DIM)))
    labels = rng.integers(0, M, (2, N, N))
    imgs = Tensor(labels[:, None].astype(np.float64) / (M - 1))

    store = ParameterStore()
    no_geo = FusionModule(store, "f", n=N, m=M, out_dim=DIM, heads=1,
                          rng=np.random.default_rng(0), stem_channels=2,
                          n_cx=2, use_geo=False)
    with no_grad():
        o = no_geo.extract(imgs)
    assert np.array_equal(o.data, np.zeros((2, DIM)))

    store2 = ParameterStore()
    no_attn = FusionModule(store2, "f", n=N, m=M, out_dim=DIM, heads=1,
                           rng=np.random.default_rng(0), stem_channels=2,
                           n_cx=2, use_attention=False)
    c = Tensor(rng.normal(size=(2, M, DIM)))
    assert no_attn.attend(c) is c

