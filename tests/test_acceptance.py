"""Acceptance gate: ten system-level criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria 6-9 share one session-scoped full-scale training run (N=8, M=4,
P=5, 500 samples, 1500 steps per stage; about three minutes on a laptop
CPU), so the first of them to execute pays the training cost.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from ar_reference import sequential_inverse
from composed_reference import ar_inverse
from urbanflows.checkpoint import read_header, save_checkpoint
from urbanflows.cli import main
from urbanflows.config_flow import (
    ConfigFlowModel,
    ConfigTensor,
    config_sample_batch,
    dequantize_config_batch,
    joint_loss,
    quantize_config_batch,
)
from urbanflows.errors import (
    CheckpointManifestError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from urbanflows.flow_layers import (
    BatchNormFlow,
    ConditionProjectionLayer,
    CouplingLayer,
    MaskedARLayer,
    Permutation,
    UncondARLayer,
    half_swap_perm,
)
from urbanflows.numerics import ParameterStore, Tensor, no_grad
from urbanflows.numerics.oracle import numerical_jacobian
from urbanflows.pipeline import (
    ModelBundle,
    dataset_arrays,
    eval_config_nll,
    eval_zone_nll,
    evaluate_model,
    generate_batch,
    train_config_stage,
    train_zone_stage,
)
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import build_info_vector, make_dataset
from urbanflows.zone_flow import ZoneFlowModel, dequantize_zone_batch


@contextmanager
def verdict(num, name):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:2d} [{name}]: FAIL")
        raise
    print(f"\ncriterion {num:2d} [{name}]: PASS")


def perturb(store, rng, scale):
    """Move every non-statistic parameter off the identity initialization."""
    for name, t in store.items():
        if "running" not in name:
            t.data = np.array(t.data + rng.normal(0.0, scale, size=t.shape))


# ---------------------------------------------------------------------------
# criterion 1: invertibility
# ---------------------------------------------------------------------------


def test_criterion_1_invertibility():
    t0 = time.perf_counter()
    with verdict(1, "invertibility"):
        rng = np.random.default_rng(10)
        d, cd, tol = 16, 7, 1e-8
        store = ParameterStore()
        layers = {
            "coupling": CouplingLayer(store, "cpl", d, cd, rng, widths=(16,)),
            "cond_proj": ConditionProjectionLayer(store, "cp", d, cd, rng,
                                                  widths=(16,)),
            "masked_ar": MaskedARLayer(store, "mar", d, cd, rng, widths=(16,),
                                       mask_seed=2),
            "uncond_ar": UncondARLayer(store, "uar", d, rng, widths=(16,),
                                       mask_seed=3),
            "batchnorm": BatchNormFlow(store, "bn", d),
            "permutation": Permutation(half_swap_perm(d)),
        }
        perturb(store, rng, 0.1)
        layers["batchnorm"].forward(Tensor(rng.normal(0.3, 1.5, size=(64, d))),
                                    mode="train")
        x = rng.normal(size=(100, d))
        e = Tensor(rng.normal(size=(100, cd)))
        for name, layer in layers.items():
            cond = None if name in ("uncond_ar", "batchnorm", "permutation") else e
            with no_grad():
                if name == "batchnorm":
                    y, _ = layer.forward(Tensor(x), mode="eval", update_stats=False)
                    back = layer.inverse(y, mode="eval")
                else:
                    y, _ = layer.forward(Tensor(x), cond, mode="eval")
                    back = layer.inverse(y, cond, mode="eval")
            err = np.abs(back.data - x).max()
            assert err < tol, f"{name} round trip {err:.3e}"

        # both full stacks at production dimensions
        rng = np.random.default_rng(11)
        s1 = ParameterStore()
        zone = ZoneFlowModel(s1, "z", 64, 19, rng, k=6, widths=(64, 64))
        perturb(s1, rng, 0.05)
        xz = rng.normal(size=(100, 64))
        ez = Tensor(rng.normal(size=(100, 19)))
        zone.forward(Tensor(xz), ez, mode="train")
        with no_grad():
            z, _ = zone.forward(Tensor(xz), ez, mode="eval", update_stats=False)
            back = zone.inverse(z, ez)
        err = np.abs(back.data - xz).max()
        assert err < tol, f"zone stack round trip {err:.3e}"

        s2 = ParameterStore()
        cfg = ConfigFlowModel(s2, "c", 320, 95, rng, k=4, widths=(64, 64))
        perturb(s2, rng, 0.05)
        xc = rng.normal(size=(100, 320))
        ac = Tensor(rng.normal(size=(100, 95)))
        cfg.forward(Tensor(xc), ac, mode="train")
        with no_grad():
            zc, _ = cfg.forward(Tensor(xc), ac, mode="eval", update_stats=False)
            backc = cfg.inverse(zc, ac)
        err = np.abs(backc.data - xc).max()
        assert err < tol, f"config stack round trip {err:.3e}"
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 2: log-determinants
# ---------------------------------------------------------------------------


def _eval_forward(layer, name, v, cond):
    with no_grad():
        if name == "batchnorm":
            return layer.forward(Tensor(v[None]), mode="eval", update_stats=False)
        if name == "uncond_ar":
            return layer.forward(Tensor(v[None]), None, mode="eval")
        return layer.forward(Tensor(v[None]), cond, mode="eval")


def test_criterion_2_log_determinants():
    t0 = time.perf_counter()
    with verdict(2, "log-determinants"):
        rng = np.random.default_rng(20)
        d, cd = 6, 4
        store = ParameterStore()
        layers = {
            "coupling": CouplingLayer(store, "cpl", d, cd, rng, widths=(12,)),
            "cond_proj": ConditionProjectionLayer(store, "cp", d, cd, rng,
                                                  widths=(12,)),
            "masked_ar": MaskedARLayer(store, "mar", d, cd, rng, widths=(12,),
                                       mask_seed=5),
            "uncond_ar": UncondARLayer(store, "uar", d, rng, widths=(12,),
                                       mask_seed=6),
            "batchnorm": BatchNormFlow(store, "bn", d),
        }
        perturb(store, rng, 0.15)
        layers["batchnorm"].forward(Tensor(rng.normal(0.4, 1.7, size=(32, d))),
                                    mode="train")
        e1 = Tensor(rng.normal(size=(1, cd)))
        for name, layer in layers.items():
            for _ in range(2):
                x1 = rng.normal(size=d)

                def f(v, layer=layer, name=name):
                    return _eval_forward(layer, name, v, e1)[0].data[0]

                num = np.linalg.slogdet(numerical_jacobian(f, x1))[1]
                _, ld = _eval_forward(layer, name, x1, e1)
                gap = abs(float(ld.data[0]) - num)
                assert gap < 1e-5, f"{name} logdet gap {gap:.3e}"

        # miniature full stacks at d = 6
        s1 = ParameterStore()
        zone = ZoneFlowModel(s1, "z", d, cd, rng, k=2, widths=(12,))
        perturb(s1, rng, 0.1)
        zone.forward(Tensor(rng.normal(size=(16, d))),
                     Tensor(rng.normal(size=(16, cd))), mode="train")
        s2 = ParameterStore()
        cfg = ConfigFlowModel(s2, "c", d, cd, rng, k=2, widths=(12,))
        perturb(s2, rng, 0.1)
        cfg.forward(Tensor(rng.normal(size=(16, d))),
                    Tensor(rng.normal(size=(16, cd))), mode="train")
        for model in (zone, cfg):
            c1 = Tensor(rng.normal(size=(1, cd)))
            x1 = rng.normal(size=d)

            def f(v, model=model):
                with no_grad():
                    z, _ = model.forward(Tensor(v[None]), c1, mode="eval",
                                         update_stats=False)
                return z.data[0]

            num = np.linalg.slogdet(numerical_jacobian(f, x1))[1]
            with no_grad():
                _, ld = model.forward(Tensor(x1[None]), c1, mode="eval",
                                      update_stats=False)
            gap = abs(float(ld.data[0]) - num)
            assert gap < 1e-4, f"stack logdet gap {gap:.3e}"
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 3: autoregression audit
# ---------------------------------------------------------------------------


def test_criterion_3_autoregression_audit():
    t0 = time.perf_counter()
    with verdict(3, "autoregression audit"):
        rng = np.random.default_rng(30)
        d, cd = 8, 5
        store = ParameterStore()
        mar = MaskedARLayer(store, "mar", d, cd, rng, widths=(16, 16), mask_seed=7)
        uar = UncondARLayer(store, "uar", d, rng, widths=(16, 16), mask_seed=8)
        perturb(store, rng, 0.3)
        cond = Tensor(rng.normal(size=(1, cd)))
        for layer, c in ((mar, cond), (uar, None)):
            x0 = rng.normal(size=d)

            def heads(v, layer=layer, c=c):
                s, b = layer.net.bind(None if c is None else c.data)(v[None])
                return np.concatenate([s[0], b[0]])

            J = numerical_jacobian(heads, x0)  # (2d, d)
            for out_block in (J[:d], J[d:]):
                for i in range(d):
                    dep = np.abs(out_block[i, i:]).max()
                    assert dep < 1e-12, f"(s,b)_{i} depends on x_j, j>=i: {dep:.3e}"

            # and the layer map itself is strictly triangular off the diagonal
            def layer_map(v, layer=layer, c=c):
                with no_grad():
                    y, _ = layer.forward(Tensor(v[None]), c, mode="eval")
                return y.data[0]

            Jl = numerical_jacobian(layer_map, x0)
            upper = np.abs(np.triu(Jl, k=1)).max()
            assert upper < 1e-12, f"layer output i depends on input j>i: {upper:.3e}"
        assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 4: gradient suite
# ---------------------------------------------------------------------------


def test_criterion_4_gradients():
    t0 = time.perf_counter()
    with verdict(4, "gradient suite"):
        for seed in (11, 29):
            rc = RunConfig(n=4, m=2, p=2, k_zone=1, k_config=1, zone_hidden=(6,),
                           config_hidden=(6,), heads=1, stem_channels=2, n_cx=2,
                           batch_size=4, seed=seed)
            bundle = ModelBundle(rc)
            rng = np.random.default_rng(seed + 100)
            for name, t in bundle.store.items():
                if "running" in name:
                    continue
                if name.endswith(".ls"):
                    # layer-scale starts near zero; move it so the extractor
                    # path carries non-degenerate gradients
                    t.data = np.array(rng.choice([-0.3, 0.3], size=t.shape)
                                      + rng.normal(0, 0.05, size=t.shape))
                else:
                    t.data = np.array(t.data + rng.normal(0.0, 0.1, size=t.shape))
            samples = make_dataset(3, 4, 2, 2, seed=seed)
            es, zlab, counts, _ = dataset_arrays(samples)
            zone_x = dequantize_zone_batch(zlab, 2, np.random.default_rng(2))
            config_x = dequantize_config_batch(counts, np.random.default_rng(3))
            z_fixed = np.random.default_rng(4).standard_normal((3, 16))

            def loss_value():
                total, _ = joint_loss(bundle.zone, bundle.fusion, bundle.config,
                                      es, zone_x, config_x, z_fixed, 0.1,
                                      zone_labels=zlab, mode="train",
                                      update_stats=False, use_sampled_u=True)
                return total

            total = loss_value()
            bundle.store.zero_grad()
            total.backward()
            grads = {n: (np.array(t.grad, dtype=np.float64) if t.grad is not None
                         else np.zeros(t.shape))
                     for n, t in bundle.store.trainable_items()}
            gmax = max(np.abs(g).max() for g in grads.values())

            def at(t, base, i, delta):
                pert = base.copy()
                pert.flat[i] += delta
                t.data = pert
                return float(loss_value().item())

            h = 2e-5
            worst, worst_name = 0.0, None
            for name, t in bundle.store.trainable_items():
                g = grads[name].ravel()
                base = np.array(t.data, dtype=np.float64, copy=True)
                gn = np.zeros(base.size)
                for i in range(base.size):
                    d1 = (at(t, base, i, h) - at(t, base, i, -h)) / (2 * h)
                    d2 = (at(t, base, i, h / 2) - at(t, base, i, -h / 2)) / h
                    gn[i] = (4 * d2 - d1) / 3  # Richardson extrapolation
                t.data = base
                # relative to the gradient scale of the instance: coordinates
                # below 0.1% of the largest gradient only see FD noise
                rel = np.abs(gn - g) / np.maximum(1e-3 * gmax,
                                                  np.maximum(np.abs(gn), np.abs(g)))
                if rel.max() > worst:
                    worst, worst_name = rel.max(), name
            assert worst < 1e-4, f"seed {seed}: worst rel {worst:.3e} at {worst_name}"
        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 5: density normalization
# ---------------------------------------------------------------------------


def test_criterion_5_density_normalization():
    t0 = time.perf_counter()
    with verdict(5, "density normalization"):
        rng = np.random.default_rng(7)
        store = ParameterStore()
        flow = ZoneFlowModel(store, "z", 2, 3, rng, k=2, widths=(8,))
        perturb(store, rng, 0.1)
        flow.forward(Tensor(rng.normal(size=(64, 2))),
                     Tensor(rng.normal(size=(64, 3))), mode="train")
        e0 = rng.normal(size=(1, 3))
        nq = 400
        edges = np.linspace(-6.0, 6.0, nq + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        cell = (12.0 / nq) ** 2
        gx, gy = np.meshgrid(centers, centers, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        integral = 0.0
        with no_grad():
            for lo in range(0, len(pts), 20000):
                chunk = pts[lo:lo + 20000]
                ee = Tensor(np.repeat(e0, len(chunk), axis=0))
                z, ld = flow.forward(Tensor(chunk), ee, mode="eval",
                                     update_stats=False)
                logp = (-0.5 * (z.data ** 2).sum(axis=1)
                        - np.log(2 * np.pi) + ld.data)
                integral += np.exp(logp).sum() * cell
        assert abs(integral - 1.0) <= 0.02, f"integral {integral:.6f}"
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criteria 6-9 share one full-scale training session
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def trained_session():
    rc = RunConfig(seed=0).validate()  # N=8, M=4, P=5, 1500 steps per stage
    t0 = time.perf_counter()
    samples = make_dataset(500, rc.n, rc.m, rc.p, seed=rc.seed)
    identity = ModelBundle(rc)
    z0 = eval_zone_nll(identity, samples, seed=123)
    c0 = eval_config_nll(identity, samples, seed=123)
    bundle = ModelBundle(rc)
    train_zone_stage(bundle, samples, np.random.default_rng(rc.seed))
    z1 = eval_zone_nll(bundle, samples, seed=123)
    train_config_stage(bundle, samples, np.random.default_rng(rc.seed + 1))
    c1 = eval_config_nll(bundle, samples, seed=123)
    elapsed = time.perf_counter() - t0
    return {
        "rc": rc, "samples": samples, "identity": identity, "bundle": bundle,
        "zone_nll": (z0, z1), "config_nll": (c0, c1), "seconds": elapsed,
    }


def test_criterion_6_end_to_end_learning(trained_session):
    with verdict(6, "end-to-end learning"):
        z0, z1 = trained_session["zone_nll"]
        c0, c1 = trained_session["config_nll"]
        zone_cut = (z0 - z1) / abs(z0)
        config_cut = (c0 - c1) / abs(c0)
        assert zone_cut >= 0.20, f"stage-1 NLL cut {zone_cut:.3f}"
        assert config_cut >= 0.20, f"stage-2 NLL cut {config_cut:.3f}"
        assert trained_session["seconds"] < 600.0, \
            f"training took {trained_session['seconds']:.0f}s"
        print(f"\n  stage-1 NLL {z0:.2f} -> {z1:.2f} (cut {zone_cut:.1%}); "
              f"stage-2 NLL {c0:.2f} -> {c1:.2f} (cut {config_cut:.1%}); "
              f"{trained_session['seconds']:.0f}s", end="")


def test_criterion_7_conditional_fidelity(trained_session):
    with verdict(7, "conditional fidelity"):
        bundle = trained_session["bundle"]
        samples = trained_session["samples"]
        fractions = []
        for lvl in range(5):
            es = np.concatenate(
                [build_info_vector(samples[i].context, lvl) for i in range(200)],
                axis=0)
            _, cts, _ = generate_batch(bundle, es, np.random.default_rng(777 + lvl))
            fractions.append(float(np.mean(
                [(ct.counts.sum(axis=2) == 0).mean() for ct in cts])))
        increasing = all(a < b for a, b in zip(fractions, fractions[1:]))
        rho = spearmanr(range(5), fractions).statistic
        assert increasing, f"not strictly increasing: {fractions}"
        assert rho == pytest.approx(1.0), f"spearman {rho}"
        print("\n  mean empty-cell fraction by level: "
              + " ".join(f"{f:.3f}" for f in fractions), end="")


def test_criterion_8_metric_improvement(trained_session):
    with verdict(8, "metric improvement"):
        samples = trained_session["samples"]
        trained = evaluate_model(trained_session["bundle"], samples, seed=0)
        untrained = evaluate_model(trained_session["identity"], samples, seed=0)
        for key in ("HD", "KL"):
            assert trained["avg"][key] < untrained["avg"][key], (
                f"AVG_{key}: trained {trained['avg'][key]:.5f} "
                f">= identity {untrained['avg'][key]:.5f}")
        print(f"\n  AVG_KL {untrained['avg']['KL']:.4f} -> "
              f"{trained['avg']['KL']:.4f}; AVG_HD {untrained['avg']['HD']:.4f}"
              f" -> {trained['avg']['HD']:.4f}", end="")


def test_criterion_9_traceability(trained_session):
    t0 = time.perf_counter()
    with verdict(9, "traceability"):
        bundle = trained_session["bundle"]
        samples = trained_session["samples"]
        rc = bundle.cfg
        depth = len(bundle.config.layers)

        def norm(h):
            h = np.asarray(h, dtype=np.float64)
            return h / h.sum()

        for g in range(10):
            e = build_info_vector(samples[g].context, g % 5)
            _, cts, traces = generate_batch(bundle, e, np.random.default_rng(7000 + g),
                                            trace=True)
            ct, trace = cts[0], traces[0]

            assert len(trace) == depth + 1
            first, last = trace[0], trace[-1]
            assert first.layer_type == "latent"
            replay = np.random.default_rng(7000 + g)
            replay.standard_normal((1, rc.d_zone))     # the zone latent comes first
            want_z = replay.standard_normal((1, rc.d_config))
            np.testing.assert_array_equal(first.state, want_z[0])
            assert ConfigTensor(quantize_config_batch(last.state, rc.n, rc.p)[0]) == ct
            hist = ct.counts.sum(axis=(0, 1))
            np.testing.assert_array_equal(last.histogram, hist)

            assert hist.sum() > 0
            final = norm(hist)
            d_first = np.abs(norm(first.histogram) - final).sum()
            d_last = np.abs(norm(last.histogram) - final).sum()
            assert d_last == 0.0
            assert d_first >= d_last
        assert time.perf_counter() - t0 < 10.0


def test_trained_stack_fixed_point_inverse_matches_sequential(trained_session,
                                                              monkeypatch):
    """Not a criterion: the fixed-point AR inverse of the fully trained
    stage-2 stack agrees with the sequential reference at B=64."""
    bundle = trained_session["bundle"]
    rc = bundle.cfg
    model = bundle.config
    es, zones, _, _ = dataset_arrays(trained_session["samples"][:64])
    with no_grad():
        a_flat = model.condition_of(bundle.fusion.embed(zones, es))
    z = np.random.default_rng(64).standard_normal((64, rc.d_config))
    nets = [layer.net for kind, _, layer, _ in model.layers if kind != "batchnorm"]
    for net in nets:
        net.calls = 0
    with no_grad():
        x = model.inverse(Tensor(z), a_flat).data
        z_back, _ = model.forward(Tensor(x), a_flat, mode="eval", update_stats=False)
    assert all(2 <= net.calls <= rc.d_config + 1 for net in nets)
    np.testing.assert_allclose(z_back.data, z, rtol=0.0, atol=1e-10)

    monkeypatch.setattr(MaskedARLayer, "inverse", sequential_inverse)
    with no_grad():
        want = model.inverse(Tensor(z), a_flat).data
    np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12)


def test_trained_stack_bound_conditioner_matches_unbound(trained_session, monkeypatch):
    """Not a criterion: stage-2 sampling from the fully trained stack with
    each conditioner bound once per inverse is bit for bit the per-pass
    reference, at B=1 and B=64."""
    bundle = trained_session["bundle"]
    es, zones, _, _ = dataset_arrays(trained_session["samples"][:64])
    with no_grad():
        c = bundle.fusion.embed(zones, es)

    def sample():
        return [config_sample_batch(bundle.config, cs, np.random.default_rng(65))[0]
                for cs in (c.data[:1], c.data)]

    got = sample()
    monkeypatch.setattr(MaskedARLayer, "inverse", ar_inverse)
    want = sample()
    for a, r in zip(got, want):
        assert np.array_equal(a, r)


# ---------------------------------------------------------------------------
# criterion 10: determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_10_determinism_persistence(tmp_path):
    with verdict(10, "determinism & persistence"):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(
            "n = 4\nm = 2\np = 2\nk_zone = 2\nk_config = 2\n"
            "zone_hidden = 8\nconfig_hidden = 8\nheads = 1\n"
            "stem_channels = 2\nn_cx = 2\nbatch_size = 8\n"
            "steps_zone = 10\nsteps_config = 4\nseed = 3\n"
        )
        cfg = str(cfg)

        def run_twice(args, outputs):
            blobs = []
            for tag in ("x", "y"):
                paths = [str(tmp_path / f"{tag}{o}") for o in outputs]
                assert main([a.format(*paths) for a in args]) == 0
                blobs.append([open(p, "rb").read() for p in paths])
            for a, b in zip(*blobs):
                assert a == b
            return [str(tmp_path / f"x{o}") for o in outputs]

        data, = run_twice(["synth", "--config", cfg, "--count", "20",
                           "--out", "{0}"], ["d.jsonl"])
        zc, = run_twice(["train-zone", "--config", cfg, "--dataset", data,
                         "--out-ckpt", "{0}"], ["z.ckpt"])
        cc, = run_twice(["train-config", "--config", cfg, "--dataset", data,
                         "--zone-ckpt", zc, "--out-ckpt", "{0}"], ["c.ckpt"])
        for tag in ("x", "y"):
            assert main(["trace", "--ckpt", cc, "--green-level", "2",
                         "--count", "1", "--seed", "5",
                         "--out-dir", str(tmp_path / f"{tag}gen")]) == 0
        assert (tmp_path / "xgen" / "configs.jsonl").read_bytes() == \
            (tmp_path / "ygen" / "configs.jsonl").read_bytes()
        assert (tmp_path / "xgen" / "gen000.trace.jsonl").read_bytes() == \
            (tmp_path / "ygen" / "gen000.trace.jsonl").read_bytes()
        run_twice(["evaluate", "--ckpt", cc, "--dataset", data,
                   "--out", "{0}"], ["rep.txt"])

        # checkpoint round trip is bit-exact
        header, _ = read_header(cc)
        rc = RunConfig.from_sources(None, header["config"])
        twin = ModelBundle(rc)
        from urbanflows.checkpoint import load_checkpoint
        load_checkpoint(cc, twin.store)
        resaved = str(tmp_path / "resaved.ckpt")
        save_checkpoint(resaved, twin.store, header["config"],
                        rng_state=header["rng_state"],
                        extra=header.get("extra"))
        assert open(resaved, "rb").read() == open(cc, "rb").read()

        # corrupted checkpoints raise the specified error classes
        blob = open(cc, "rb").read()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:-16])
        with pytest.raises(CheckpointTruncatedError):
            read_header(str(bad))
        nl = blob.find(b"\n")
        bad.write_bytes(b"URBANFLOWS-CKPT v9\n" + blob[nl + 1:])
        with pytest.raises(CheckpointVersionError):
            read_header(str(bad))
        bad.write_bytes(blob[:nl + 1] + b'{"broken": ' + blob[nl + 13:])
        with pytest.raises(CheckpointManifestError):
            read_header(str(bad))