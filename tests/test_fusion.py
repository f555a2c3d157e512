"""Information-fusion contracts: partition masks, the ConvNeXt-style
extractor, semantic projection, attention, and the assembled conditioning
path."""

import numpy as np
import pytest

import geo_reference
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


def _extractor_run(forward, ext, store, x, g, mode):
    """Output, input gradient and every parameter gradient of one extractor
    run; its drop-path masks come from a generator of a fixed seed, and the
    generator's next draw shows how many it took."""
    store.zero_grad()
    xt = Tensor(x.copy(), requires_grad=True)
    rng = np.random.default_rng(3)
    out = forward(ext, xt, mode=mode, rng=rng)
    (out * Tensor(g)).sum().backward()
    return out.data, xt.grad, {name: t.grad for name, t in store.items()}, rng.random()


def _largest_gap(a, b):
    """The largest absolute difference between two ``_extractor_run``s'
    outputs and gradients."""
    assert a[2].keys() == b[2].keys()
    return max([np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max()]
               + [np.abs(a[2][name] - b[2][name]).max() for name in a[2]])


def _oracle_case(n, stem, n_cx, batch, drop_path, seed):
    rng = np.random.default_rng(seed)
    ext, store = make_extractor(rng, out_dim=7, stem=stem, n_cx=n_cx, drop_path=drop_path)
    for _, t in store.items():
        t.data[...] += rng.normal(scale=0.3, size=t.shape)
    return ext, store, rng.random((batch, 1, n, n)), rng.normal(size=(batch, 7))


@pytest.mark.parametrize("batch", [1, 37])
@pytest.mark.parametrize("mode,drop_path", [("eval", 0.0), ("train", 0.0), ("train", 0.3),
                                            ("eval", 0.3)])
def test_extractor_matches_the_composed_nchw_oracle(batch, mode, drop_path):
    """At the default geometry the channels-last extractor, one node per
    ConvNeXt layer, gives the composed NCHW extractor's output, input
    gradient and every parameter gradient within atol 1e-12, and draws the
    same keep masks from the generator.  Every parameter is moved off its
    init, so LayerScale does not hide the layers' gradients."""
    ext, store, x, g = _oracle_case(8, 8, 3, batch, drop_path, seed=batch)
    got = _extractor_run(GeoExtractor.forward, ext, store, x, g, mode)
    want = _extractor_run(geo_reference.composed_forward, ext, store, x, g, mode)
    assert _largest_gap(got, want) <= 1e-12
    assert got[3] == want[3]
    if mode == "train" and drop_path and batch > 1:
        # the masks dropped some layers of some samples
        assert not np.allclose(got[0], _extractor_run(GeoExtractor.forward, ext, store,
                                                      x, g, "eval")[0])


def test_extractor_matches_the_oracle_at_the_ci_tiny_geometry():
    """One case at the CI's tiny geometry (n=4, n_cx=2, stem_channels=2),
    in train mode with drop-path.  A layer-norm over two channels divides
    by half their gap, so where two channel values nearly meet, moving x by
    one ulp moves either implementation's gradients by more than 1e-12
    (2.4e-9 in one of 40 seeds tried).  The case first checks that its data
    is not such a point: the oracle's own results move by at most 1e-13."""
    ext, store, x, g = _oracle_case(4, 2, 2, 37, 0.3, seed=0)
    want = _extractor_run(geo_reference.composed_forward, ext, store, x, g, "train")
    nudged = _extractor_run(geo_reference.composed_forward, ext, store, np.nextafter(x, 2.0),
                            g, "train")
    assert _largest_gap(nudged, want) <= 1e-13
    got = _extractor_run(GeoExtractor.forward, ext, store, x, g, "train")
    assert _largest_gap(got, want) <= 1e-12
    assert got[3] == want[3]


def test_extractor_forward_without_a_tape_is_the_taped_one(rng):
    """Under ``no_grad`` each ConvNeXt layer runs its (rows, 4C) arrays a
    block of rows at a time; its output is the taped run's."""
    ext, store = make_extractor(rng, out_dim=7, stem=8, n_cx=3)
    for _, t in store.items():
        t.data[...] += rng.normal(scale=0.3, size=t.shape)
    x = rng.random((37, 1, 8, 8))
    taped = ext.forward(Tensor(x, requires_grad=True))
    with no_grad():
        untaped = ext.forward(Tensor(x))
    np.testing.assert_allclose(untaped.data, taped.data, rtol=0.0, atol=1e-13)


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

