"""End-to-end pipeline behavior and the command-line interface.

CLI tests call cli.main(argv) in-process; one smoke test goes through
``python3 -m urbanflows`` to cover the real entry point.
"""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import encoding_reference
from adam_reference import CopyingAdam
from conftest import tiny_set_args
from urbanflows import checkpoint, cli, config_flow, pipeline
from urbanflows.checkpoint import read_header
from urbanflows.cli import main
from urbanflows.config_flow import dequantize_config_batch
from urbanflows.numerics import ParameterStore
from urbanflows.errors import (
    CheckpointValueError,
    ConfigurationError,
    DataError,
    TrainingFault,
)
from urbanflows.pipeline import (
    ModelBundle,
    check_dataset_dims,
    dataset_arrays,
    eval_config_nll,
    eval_zone_nll,
    evaluate_model,
    evaluate_pools,
    format_report,
    generate_batch,
    generate_one,
    train_config_stage,
    train_zone_stage,
)
from urbanflows.render import render_config_ppm
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import info_vectors, make_dataset, read_dataset
from urbanflows.zone_flow import dequantize_zone_batch

MINI = dict(n=4, m=2, p=2, k_zone=2, k_config=2, zone_hidden=(8,),
            config_hidden=(8,), heads=1, stem_channels=2, n_cx=2,
            batch_size=8, seed=3)


def mini_bundle(**over):
    rc = RunConfig(**{**MINI, **over})
    return ModelBundle(rc)


def test_identity_bundle_nll_is_standard_gaussian():
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(24, rc.n, rc.m, rc.p, seed=5)

    got = eval_zone_nll(bundle, samples, seed=9)
    _, zones, counts, _ = dataset_arrays(samples)
    x = dequantize_zone_batch(zones, rc.m, np.random.default_rng(9))
    d = rc.d_zone
    want = float(np.mean(0.5 * (x.reshape(len(x), -1) ** 2).sum(axis=1)
                         + 0.5 * d * np.log(2 * np.pi)))
    assert abs(got - want) < 1e-9

    got_c = eval_config_nll(bundle, samples, seed=9)
    xc = dequantize_config_batch(counts, np.random.default_rng(9))
    dc = rc.d_config
    want_c = float(np.mean(0.5 * (xc ** 2).sum(axis=1)
                           + 0.5 * dc * np.log(2 * np.pi)))
    assert abs(got_c - want_c) < 1e-9


def test_train_zone_stage_reduces_eval_nll():
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(40, rc.n, rc.m, rc.p, seed=2)
    before = eval_zone_nll(bundle, samples, seed=1)
    history = train_zone_stage(bundle, samples, np.random.default_rng(0), steps=60)
    after = eval_zone_nll(bundle, samples, seed=1)
    assert len(history) == 60
    assert after < before - 1.0


def test_training_fault_restores_parameters():
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(16, rc.n, rc.m, rc.p, seed=2)
    name = next(n for n, _ in bundle.named_trainable(("zone.",)))
    bundle.store[name].data.flat[0] = np.nan
    before = bundle.store.snapshot()
    with np.errstate(invalid="ignore"), pytest.raises(TrainingFault):
        train_zone_stage(bundle, samples, np.random.default_rng(0), steps=3)
    after = bundle.store.snapshot()
    assert sorted(before) == sorted(after)
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])


def test_stage1_fault_restores_zone_namespace_only(monkeypatch):
    """The stage-1 rollback covers every ``zone.*`` value (the batch-norm
    running stats too) and leaves ``fusion.*`` and ``config.*`` alone."""
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(16, rc.n, rc.m, rc.p, seed=2)
    store = bundle.store
    others = [n for n in store.names() if not n.startswith("zone.")]
    assert any(n.startswith("fusion.") for n in others)
    assert any(n.startswith("config.") for n in others)
    real_nll = pipeline.nll_tensors
    good = []  # the whole store after each good step
    moved = []

    def faulty_nll(model, x, cond, **kw):
        mean, per = real_nll(model, x, cond, **kw)
        if len(good) == 2:  # step 2 fails after its forward has run
            moved.extend(n for n, arr in good[-1].items()
                         if not np.array_equal(store[n].data, arr))
            for n in others:
                store[n].data += 1.0
            per = per.copy()
            per[1] = np.nan
        return mean, per

    monkeypatch.setattr(pipeline, "nll_tensors", faulty_nll)
    with pytest.raises(TrainingFault, match="step 2"):
        train_zone_stage(bundle, samples, np.random.default_rng(0), steps=5,
                         log=lambda *_: good.append(store.snapshot()))
    assert any(n.endswith(".running_mean") for n in moved)
    for name, arr in good[-1].items():
        want = arr + 1.0 if name in others else arr
        assert np.array_equal(store[name].data, want), name


@pytest.mark.parametrize("stage", ["zone", "config"])
@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_poisoned_gradient_leaves_the_last_good_state(monkeypatch, stage, poison):
    """A gradient poisoned after the backward of step 2 ends that stage in
    Adam's "non-finite parameters after step 2" fault.  Every parameter
    and running statistic then equals its value after step 1, although the
    forward of step 2 had moved the running statistics, and no
    ``RuntimeWarning`` is raised on the way."""
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(16, rc.n, rc.m, rc.p, seed=2)
    store = bundle.store
    good = []  # the whole store after each good step
    moved = []

    class PoisonedAdam(pipeline.Adam):
        def step(self):
            if self.t == 2:
                moved.extend(n for n, arr in good[-1].items()
                             if not np.array_equal(store[n].data, arr))
                grad = next(t.grad for _, t in self.params if t.grad is not None)
                grad.flat[0] = poison
            super().step()

    monkeypatch.setattr(pipeline, "Adam", PoisonedAdam)
    train, message = {
        "zone": (train_zone_stage, "non-finite parameters after step 2"),
        "config": (train_config_stage, "non-finite parameters after step 2"),
    }[stage]
    with pytest.raises(TrainingFault, match=message):
        train(bundle, samples, np.random.default_rng(0), steps=5,
              log=lambda *_: good.append(store.snapshot()))
    assert len(good) == 2
    assert any(n.endswith(".running_mean") for n in moved)
    assert sorted(good[-1]) == store.names()
    for name, arr in good[-1].items():
        assert np.array_equal(store[name].data, arr), name


@pytest.mark.parametrize("over", [{}, {"use_geo": False, "use_attention": False}],
                         ids=["default", "ablated"])
def test_bound_gradients_train_as_copied_ones(monkeypatch, over):
    """Four steps of each stage of a default-size model end in the same
    bits whether the tape accumulates into Adam's buffer or ``step`` copies
    fresh arrays in: every parameter, both moments and every logged loss
    part.  The ablated model has tensors that never get a gradient."""
    runs = []
    for cls in (pipeline.Adam, CopyingAdam):
        opts, parts, missing = [], [], []

        class Recording(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

            def step(self):
                missing.append(sum(t.grad is None for _, t in self.params))
                super().step()

        monkeypatch.setattr(pipeline, "Adam", Recording)
        bundle = ModelBundle(RunConfig(**over).validate())
        rc = bundle.cfg
        samples = make_dataset(40, rc.n, rc.m, rc.p, seed=4)
        log = lambda step, loss, p: parts.append({k: np.float64(v).tobytes() for k, v in p.items()})
        train_zone_stage(bundle, samples, np.random.default_rng(0), steps=4, log=log)
        train_config_stage(bundle, samples, np.random.default_rng(1), steps=4, log=log)
        state = [bundle.store[n].data.tobytes() for n in bundle.store.names()]
        state += [arr.tobytes() for opt in opts for arr in (opt._m, opt._v)]
        runs.append((state, parts, missing))
    (state, parts, missing), want = runs
    assert len(parts) == 8 and len(missing) == 8
    assert (missing[4] > 0) == bool(over)  # stage 2 leaves the unused tensors
    assert state == want[0] and parts == want[1] and missing == want[2]


def test_adam_buffer_does_not_outlive_training(monkeypatch):
    """Between ``backward`` and ``step`` every gradient lies in Adam's flat
    buffer, and ``step`` leaves each ``.grad`` None.  No tensor keeps that
    buffer alive once ``_train`` returns, or raises ``TrainingFault`` from
    a loss or from ``step``."""
    buffers, steps = [], []

    class Watched(pipeline.Adam):
        poison = False

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buffers.append(weakref.ref(self._new))

        def step(self):
            grads = [t.grad for _, t in self.params if t.grad is not None]
            assert grads and all(np.shares_memory(g, self._new) for g in grads)
            if self.poison:
                grads[0].flat[0] = np.nan
            del grads
            try:
                super().step()
            finally:
                assert all(t.grad is None for _, t in self.params)
            steps.append(self.t)

    def buffer_freed():
        gc.collect()
        return buffers[-1]() is None

    monkeypatch.setattr(pipeline, "Adam", Watched)
    rc = mini_bundle().cfg
    samples = make_dataset(16, rc.n, rc.m, rc.p, seed=2)
    bundles = [mini_bundle() for _ in range(4)]  # alive to the end, as a CLI's is
    for train, bundle in ((train_zone_stage, bundles[0]), (train_config_stage, bundles[1])):
        train(bundle, samples, np.random.default_rng(0), steps=2)
        assert buffer_freed() and steps[-2:] == [1, 2]
    bundles[2].store["zone.block0.coupling.out.w"].data.flat[0] = np.nan
    with pytest.raises(TrainingFault, match="non-finite zone NLL"):
        train_zone_stage(bundles[2], samples, np.random.default_rng(0), steps=2)
    assert buffer_freed()
    Watched.poison = True
    with pytest.raises(TrainingFault, match="non-finite parameters after step 0"):
        train_config_stage(bundles[3], samples, np.random.default_rng(0), steps=2)
    assert buffer_freed() and len(buffers) == 4


@pytest.mark.parametrize("train,part", [(train_zone_stage, "zone_nll"),
                                         (train_config_stage, "config_nll")])
def test_both_stages_log_step_loss_and_parts(train, part):
    """Each stage calls ``log(step, loss, parts)`` once per step, with
    ``parts["total"] == loss`` and the stage's own NLL among the parts, and
    returns the logged (step, loss) pairs as its history."""
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(16, rc.n, rc.m, rc.p, seed=2)
    logged = []
    history = train(bundle, samples, np.random.default_rng(0), steps=3,
                    log=lambda step, loss, parts: logged.append((step, loss, parts)))
    assert [step for step, _, _ in logged] == [0, 1, 2]
    for _, loss, parts in logged:
        assert {part, "zone_nll", "total"} <= set(parts)
        assert parts["total"] == loss
    assert history == [(step, loss) for step, loss, _ in logged]


def test_dataset_arrays_matches_per_sample_info_vectors():
    """``dataset_arrays`` hands out the dataset's own arrays, no copy, and
    the info vectors of its rows."""
    for seed in (1, 7, 1101):
        ds = make_dataset(23, 4, 2, 3, seed=seed)
        es, zones, counts, levels = dataset_arrays(ds)
        want = np.concatenate([encoding_reference.build_info_vector(context, level)
                               for context, level in zip(ds.context, ds.levels)])
        assert np.array_equal(es, want)
        assert levels is ds.levels and zones is ds.zones and counts is ds.counts
    bad = dataclasses.replace(ds, levels=np.where(np.arange(len(ds)) == 4, 5, ds.levels))
    with pytest.raises(DataError, match="guidance level"):
        dataset_arrays(bad)
    with pytest.raises(DataError, match="empty dataset"):
        dataset_arrays(ds[:0])


def test_training_holds_no_second_copy_of_the_dataset():
    """A training call reads the dataset's arrays where they are: the
    tracemalloc peak of one stage-1 step grows by under 1 MB from 100 to
    2,000 default-size samples.  A stacked copy of es, zones and counts
    adds about 6 MB at 2,000."""
    rc = RunConfig(k_zone=1, k_config=1, zone_hidden=(8,), config_hidden=(8,),
                   stem_channels=2, n_cx=2).validate()
    bundle = ModelBundle(rc)
    big = make_dataset(2000, rc.n, rc.m, rc.p, seed=3)
    small = big[:100]

    def peak(ds):
        tracemalloc.start()
        try:
            train_zone_stage(bundle, ds, np.random.default_rng(0), steps=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(small)  # warm-up: first-call allocations
    assert peak(big) - peak(small) < 1e6


def test_generation_shapes_and_determinism():
    bundle = mini_bundle()
    rc = bundle.cfg
    e = info_vectors(make_dataset(1, rc.n, rc.m, rc.p, seed=7).context, [2])[0]

    zm1, ct1 = generate_one(bundle, e, np.random.default_rng(4))
    zm2, ct2 = generate_one(bundle, e, np.random.default_rng(4))
    assert zm1.labels.shape == (rc.n, rc.n)
    assert ct1.counts.shape == (rc.n, rc.n, rc.p)
    np.testing.assert_array_equal(zm1.labels, zm2.labels)
    np.testing.assert_array_equal(ct1.counts, ct2.counts)
    _, _, tr = generate_batch(bundle, e[None], np.random.default_rng(4), trace=True)
    assert len(tr) == 3 * rc.k_config + 1
    assert tr[0][1] == "latent"
    np.testing.assert_array_equal(tr[-1][3][0].sum(axis=(0, 1)), ct1.counts.sum(axis=(0, 1)))

    es = np.stack([e] * 6)
    zms, cts, traces = generate_batch(bundle, es, np.random.default_rng(4))
    assert len(zms) == len(cts) == 6
    assert traces is None
    for ct in cts:
        assert ct.counts.shape == (rc.n, rc.n, rc.p)


@pytest.mark.parametrize("trace", [False, True])
def test_generate_one_is_generate_batch_at_b1(trace):
    """``generate_one`` is ``generate_batch`` at B=1, traced or not.  A
    traced B=1 call holds one row per step: the latent, then each layer of
    the stack in inverse order, each state quantized to its counts, the
    last to ``generate_one``'s configuration."""
    bundle = mini_bundle()
    rng = np.random.default_rng(8)
    for _, t in bundle.store.trainable_items():
        t.data += rng.normal(0.0, 0.1, size=t.shape)
    rc = bundle.cfg
    e = info_vectors(make_dataset(1, rc.n, rc.m, rc.p, seed=7).context, [3])[0]
    rng_one, rng_batch = np.random.default_rng(5), np.random.default_rng(5)
    zm, ct = generate_one(bundle, e, rng_one)
    zms, cts, trs = generate_batch(bundle, e[None], rng_batch, trace=trace)
    assert np.array_equal(zm.labels, zms[0].labels)
    assert np.array_equal(ct.counts, cts[0].counts)
    if trace:
        layers = bundle.config.layers
        assert len(trs) == len(layers) + 1
        assert [(i, kind) for i, kind, _, _ in trs] == [(-1, "latent")] + [
            (i, layers[i][0]) for i in reversed(range(len(layers)))]
        for _, _, states, counts in trs:
            assert states.shape == (1, bundle.config.d)
            assert np.array_equal(counts, config_flow.quantize_config_batch(states, rc.n, rc.p))
        assert np.array_equal(trs[-1][3][0], ct.counts)
    else:
        assert trs is None
    # both consumed the same draws, so the streams stay aligned
    assert np.array_equal(rng_one.random(4), rng_batch.random(4))


def test_evaluate_pools_self_comparison_is_zero():
    samples = make_dataset(30, 4, 2, 2, seed=11)
    _, _, counts, levels = dataset_arrays(samples)
    report = evaluate_pools(counts, counts, levels)
    assert len(report["levels"]) == 5
    for row in report["levels"]:
        assert abs(row["kl"]) < 1e-12
        assert abs(row["hd"]) < 1e-9
        assert abs(row["wd"]) < 1e-12
    for key in ("KL", "HD", "WD"):
        assert abs(report["avg"][key]) < 1e-9


def test_evaluate_pools_rejects_misaligned_rows():
    samples = make_dataset(30, 4, 2, 2, seed=11)
    _, _, counts, levels = dataset_arrays(samples)
    for original, generated, lv in ((counts, counts[:-1], levels),
                                    (counts, counts, levels[:-1])):
        with pytest.raises(DataError, match="one row per sample"):
            evaluate_pools(original, generated, lv)


def test_evaluate_model_and_report_format():
    bundle = mini_bundle()
    rc = bundle.cfg
    samples = make_dataset(25, rc.n, rc.m, rc.p, seed=13)
    report = evaluate_model(bundle, samples, seed=0)
    text = format_report(report, rc.as_dict())
    lines = text.splitlines()
    assert lines[0] == "# urbanflows evaluation report"
    assert lines[1].startswith("# config {")
    level_lines = [l for l in lines if l.startswith("level ")]
    assert len(level_lines) == 5
    assert level_lines[0].split()[:4] == ["level", "0", "count", "5"]
    assert [l.split()[0] for l in lines[-3:]] == ["AVG_KL", "AVG_HD", "AVG_WD"]
    # two header lines, the level rows and the averages: nothing else
    assert len(lines) == 2 + 5 + 3


def test_check_dataset_dims():
    rc = RunConfig(**MINI)
    check_dataset_dims({"N": 4, "M": 2, "P": 2}, rc)
    with pytest.raises(ConfigurationError):
        check_dataset_dims({"N": 8, "M": 2, "P": 2}, rc)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_mini_config(tmp_path, name="mini.cfg", **extra):
    lines = {**MINI, **extra}
    text = "\n".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in lines.items()
    )
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


def test_cli_synth_determinism_and_empty(tmp_path):
    cfg = write_mini_config(tmp_path)
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["synth", "--config", cfg, "--count", "12", "--out", a]) == 0
    assert main(["synth", "--config", cfg, "--count", "12", "--out", b]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    empty = str(tmp_path / "empty.jsonl")
    assert main(["synth", "--config", cfg, "--count", "0", "--out", empty]) == 0
    ds, meta = read_dataset(empty)
    assert len(ds) == 0 and meta["N"] == 4
    # a header-only file
    assert len(open(empty).read().splitlines()) == 1


def test_cli_full_round_trip(tmp_path, capsys):
    cfg = write_mini_config(tmp_path, steps_zone=25, steps_config=6)
    data = str(tmp_path / "data.jsonl")
    assert main(["synth", "--config", cfg, "--count", "30", "--out", data]) == 0

    zc1, zc2 = str(tmp_path / "z1.ckpt"), str(tmp_path / "z2.ckpt")
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", zc1]) == 0
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", zc2]) == 0
    assert (tmp_path / "z1.ckpt").read_bytes() == (tmp_path / "z2.ckpt").read_bytes()

    log_lines = (tmp_path / "z1.ckpt.log").read_text().splitlines()
    assert log_lines[0] == "# urbanflows loss log"
    steps = [line.split("\t") for line in log_lines[2:]]
    assert len(steps) == 25
    losses = [float(loss) for _, loss in steps]
    assert losses[-1] < losses[0]

    cc = str(tmp_path / "c.ckpt")
    assert main(["train-config", "--config", cfg, "--dataset", data,
                 "--zone-ckpt", zc1, "--out-ckpt", cc]) == 0
    header, _ = read_header(cc)
    assert header["extra"]["stage"] == "config"

    gen1, gen2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    args = ["--ckpt", cc, "--green-level", "4", "--count", "2", "--seed", "7"]
    assert main(["generate", *args, "--out-dir", gen1]) == 0
    assert main(["generate", *args, "--out-dir", gen2]) == 0
    assert (tmp_path / "g1" / "configs.jsonl").read_bytes() == \
        (tmp_path / "g2" / "configs.jsonl").read_bytes()
    assert (tmp_path / "g1" / "gen001.ppm").exists()

    # trace subcommand forces tracing on: one image per flow step
    trd = str(tmp_path / "tr")
    assert main(["trace", "--ckpt", cc, "--green-level", "0", "--count", "1",
                 "--seed", "5", "--out-dir", trd]) == 0
    trace_lines = (tmp_path / "tr" / "gen000.trace.jsonl").read_text().splitlines()
    head = json.loads(trace_lines[0])
    assert head["steps"] == 3 * MINI["k_config"] + 1 == len(trace_lines) - 1
    first = json.loads(trace_lines[1])
    last = json.loads(trace_lines[-1])
    assert first["layer_type"] == "latent"
    rec = json.loads((tmp_path / "tr" / "configs.jsonl").read_text().splitlines()[1])
    counts = np.array(rec["config"]).reshape(4, 4, 2)
    assert last["histogram"] == counts.sum(axis=(0, 1)).tolist()
    for s in range(head["steps"]):
        assert (tmp_path / "tr" / f"gen000.step{s:02d}.ppm").exists()

    rep1, rep2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    assert main(["evaluate", "--ckpt", cc, "--dataset", data, "--out", rep1]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--ckpt", cc, "--dataset", data, "--out", rep2]) == 0
    assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
    assert "AVG_KL" in capsys.readouterr().out


def test_cli_zero_budget_checkpoint_is_identity_init(tmp_path):
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = str(tmp_path / "data.jsonl")
    main(["synth", "--config", cfg, "--count", "8", "--out", data])
    ckpt = str(tmp_path / "z.ckpt")
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", ckpt]) == 0
    fresh = ModelBundle(RunConfig(**{**MINI, "steps_zone": 0}))
    header, payload = read_header(ckpt)
    assert payload == b"".join(fresh.store.payload_arrays())


def test_cli_error_paths(tmp_path, capsys):
    cfg = write_mini_config(tmp_path)
    data = str(tmp_path / "data.jsonl")
    main(["synth", "--config", cfg, "--count", "8", "--out", data])

    # missing zone checkpoint
    rc = main(["train-config", "--config", cfg, "--dataset", data,
               "--zone-ckpt", str(tmp_path / "nope.ckpt"),
               "--out-ckpt", str(tmp_path / "c.ckpt")])
    assert rc == 1 and "not found" in capsys.readouterr().err

    # checkpoint from a structurally different model
    other_cfg = write_mini_config(tmp_path, name="other.cfg", zone_hidden=(4,))
    zc = str(tmp_path / "zo.ckpt")
    assert main(["train-zone", "--config", other_cfg, "--set", "steps_zone=0",
                 "--dataset", data, "--out-ckpt", zc]) == 0
    capsys.readouterr()
    rc = main(["train-config", "--config", cfg, "--dataset", data,
               "--zone-ckpt", zc, "--out-ckpt", str(tmp_path / "c.ckpt")])
    assert rc == 1 and "different model dimensions" in capsys.readouterr().err

    # dataset dims do not match the requested model
    rc = main(["train-zone", "--config", cfg, "--set", "n=8", "--set", "n_cx=2",
               "--dataset", data, "--out-ckpt", str(tmp_path / "z8.ckpt")])
    assert rc == 1 and "do not match" in capsys.readouterr().err

    # generation argument errors against a real checkpoint
    ckpt = str(tmp_path / "z.ckpt")
    main(["train-zone", "--config", cfg, "--set", "steps_zone=0",
          "--dataset", data, "--out-ckpt", ckpt])
    capsys.readouterr()
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "9",
               "--out-dir", str(tmp_path / "g")])
    assert rc == 1 and "out of range" in capsys.readouterr().err
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "1",
               "--dataset", data, "--out-dir", str(tmp_path / "g")])
    assert rc == 1 and "--sample-id" in capsys.readouterr().err
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "1",
               "--dataset", data, "--sample-id", "99999",
               "--out-dir", str(tmp_path / "g")])
    assert rc == 1 and "99999" in capsys.readouterr().err

    # i/o failure surfaces as exit 1, not a traceback
    rc = main(["synth", "--config", cfg, "--count", "1",
               "--out", str(tmp_path / "missing_dir" / "x.jsonl")])
    assert rc == 1


def zero_budget_checkpoint(tmp_path):
    """An untrained full-bundle checkpoint written by `train-zone`."""
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = str(tmp_path / "data.jsonl")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    ckpt = str(tmp_path / "z.ckpt")
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", ckpt]) == 0
    return ckpt


def test_cli_generate_reads_checkpoint_once(tmp_path, monkeypatch):
    ckpt = zero_budget_checkpoint(tmp_path)
    paths = []

    def counting_read_header(path):
        paths.append(path)
        return read_header(path)

    monkeypatch.setattr(checkpoint, "read_header", counting_read_header)
    monkeypatch.setattr(cli, "read_header", counting_read_header)
    assert main(["generate", "--ckpt", ckpt, "--green-level", "1",
                 "--out-dir", str(tmp_path / "g")]) == 0
    assert paths == [ckpt]


def test_cli_generate_rejects_malformed_manifest_shape(tmp_path, capsys,
                                                       rewrite_header):
    ckpt = zero_budget_checkpoint(tmp_path)

    def edit(header):
        header["manifest"][0][1] = "ab"

    rewrite_header(ckpt, edit)
    capsys.readouterr()
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "1",
               "--out-dir", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 1 and "malformed manifest entry" in err


def test_cli_rejects_nan_lr_before_training(tmp_path, capsys):
    cfg = write_mini_config(tmp_path)
    data = str(tmp_path / "data.jsonl")
    main(["synth", "--config", cfg, "--count", "8", "--out", data])
    capsys.readouterr()
    ckpt = tmp_path / "z.ckpt"
    rc = main(["train-zone", "--config", cfg, "--set", "lr=nan",
               "--dataset", data, "--out-ckpt", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and "finite" in err
    assert not ckpt.exists()
    assert not os.path.exists(str(ckpt) + ".log")


@pytest.mark.parametrize("command,count", [
    ("synth", -2), ("generate", 0), ("generate", -3), ("trace", 0),
])
def test_cli_rejects_bad_count_before_writing(tmp_path, capsys, command, count):
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = str(tmp_path / "data.jsonl")
    ckpt = str(tmp_path / "z.ckpt")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", ckpt]) == 0
    before = sorted(os.listdir(tmp_path))
    out = str(tmp_path / "out")
    if command == "synth":
        argv = ["synth", "--config", cfg, "--out", out]
    else:
        argv = [command, "--ckpt", ckpt, "--green-level", "1", "--out-dir", out]
    capsys.readouterr()
    rc = main([*argv, "--count", str(count)])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and "--count" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_rejects_dataset_header_that_is_not_an_object(tmp_path, capsys):
    cfg = write_mini_config(tmp_path)
    data = tmp_path / "data.jsonl"
    data.write_text("[1]\n")
    rc = main(["train-zone", "--config", cfg, "--dataset", str(data),
               "--out-ckpt", str(tmp_path / "z.ckpt")])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and "not a JSON object" in err


@pytest.mark.parametrize("key,value", [("zones", 1.7), ("config", 2.9), ("config", True)])
@pytest.mark.parametrize("command", ["train-zone", "train-config", "evaluate"])
def test_cli_rejects_non_integer_dataset_entries(tmp_path, capsys, command, key, value):
    """A zone label or POI count that is not a JSON integer is a bad
    record naming its line, not a value truncated to an integer, and the
    command writes nothing."""
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = tmp_path / "data.jsonl"
    ckpt = str(tmp_path / "z.ckpt")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", str(data)]) == 0
    assert main(["train-zone", "--config", cfg, "--dataset", str(data),
                 "--out-ckpt", ckpt]) == 0
    lines = data.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[key][1] = value
    lines[2] = json.dumps(rec, sort_keys=True)
    data.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    argv = {
        "train-zone": ["train-zone", "--config", cfg, "--out-ckpt", out],
        "train-config": ["train-config", "--config", cfg, "--zone-ckpt", ckpt,
                         "--out-ckpt", out],
        "evaluate": ["evaluate", "--ckpt", ckpt, "--out", out],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--dataset", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:3: bad record: {key} entries must all be integers")
    assert not os.path.exists(out) and not os.path.exists(out + ".log")


@pytest.mark.parametrize("command", ["generate", "trace"])
def test_cli_rejects_a_repeated_dataset_id(tmp_path, capsys, command):
    """A record whose id an earlier record already has is refused on its
    line, so ``--sample-id`` never picks the first of two samples
    silently, and nothing is written."""
    ckpt = zero_budget_checkpoint(tmp_path)
    data = tmp_path / "data.jsonl"
    lines = data.read_text().splitlines()
    rec, sid = json.loads(lines[2]), json.loads(lines[1])["id"]
    rec["id"] = sid
    lines[2] = json.dumps(rec, sort_keys=True)
    data.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    capsys.readouterr()
    rc = main([command, "--ckpt", ckpt, "--green-level", "1", "--dataset", str(data),
               "--sample-id", str(sid), "--out-dir", out])
    err = capsys.readouterr().err
    assert rc == 1 and "Traceback" not in err
    assert err.startswith(f"error: {data}:3: repeated id {sid} (first on line 2)")
    assert not os.path.exists(out)


def test_cli_generate_finds_a_sample_id_beyond_int64(tmp_path):
    """``--sample-id`` takes any integer id a dataset holds: a record whose
    id is 2**70 conditions generation exactly as under its original id."""
    ckpt = zero_budget_checkpoint(tmp_path)
    data = tmp_path / "data.jsonl"
    lines = data.read_text().splitlines()
    sid = json.loads(lines[3])["id"]
    big = tmp_path / "big.jsonl"
    rec = json.loads(lines[3])
    rec["id"] = 2 ** 70
    big.write_text("\n".join(lines[:3] + [json.dumps(rec, sort_keys=True)] + lines[4:]) + "\n")
    runs = []
    for path, sample_id in ((data, sid), (big, 1180591620717411303424)):
        out = tmp_path / f"g{len(runs)}"
        assert main(["generate", "--ckpt", ckpt, "--green-level", "2", "--count", "2",
                     "--dataset", str(path), "--sample-id", str(sample_id),
                     "--out-dir", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] == runs[1]


@pytest.mark.parametrize("edit,message", [
    (lambda header: header.update(config=5), "config is not a JSON object"),
    (lambda header: header["config"].update(n=[4]), "n: expected an integer"),
    (lambda header: header["config"].update(lr=10 ** 400), "lr: expected a number"),
    (lambda header: header.update(format_version="one"), "format_version 'one'"),
])
def test_cli_rejects_mistyped_checkpoint_config(tmp_path, capsys, rewrite_header,
                                                edit, message):
    ckpt = zero_budget_checkpoint(tmp_path)
    rewrite_header(ckpt, edit)
    capsys.readouterr()
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "1",
               "--out-dir", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["synth", "train-zone", "checkpoint"])
@pytest.mark.parametrize("key,value", [("stem_channels", 0), ("seed", -1), ("zone_hidden", [-3]),
                                       ("zone_hidden", [0]), ("config_hidden", [8, 0])])
def test_cli_rejects_bad_model_values(tmp_path, capsys, rewrite_header, where, key, value):
    ckpt = zero_budget_checkpoint(tmp_path)
    out = str(tmp_path / "out")
    if where == "checkpoint":
        rewrite_header(ckpt, lambda header: header["config"].update({key: value}))
        argv = ["generate", "--ckpt", ckpt, "--green-level", "1", "--out-dir", out]
    else:
        setting = ",".join(map(str, value)) if isinstance(value, list) else value
        argv = {"synth": ["synth", "--count", "4", "--out", out],
                "train-zone": ["train-zone", "--dataset", str(tmp_path / "data.jsonl"),
                               "--out-ckpt", out]}[where]
        argv += ["--config", str(tmp_path / "mini.cfg"), "--set", f"{key}={setting}"]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error:") and key in err
    assert not os.path.exists(out)


def test_cli_evaluate_failed_rename_keeps_old_report(tmp_path, monkeypatch,
                                                    capsys):
    ckpt = zero_budget_checkpoint(tmp_path)
    data = str(tmp_path / "data.jsonl")
    report = tmp_path / "report.txt"
    args = ["evaluate", "--ckpt", ckpt, "--dataset", data, "--out", str(report)]
    assert main(args) == 0
    before = report.read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    assert main(args) == 1
    assert "disk full" in capsys.readouterr().err
    assert report.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_train_zone_rejects_context_rows_of_the_wrong_width(tmp_path):
    """A record whose context rows are not P + 2 wide is a parse error with
    exit 1, not a numpy traceback from stacking the info vectors."""
    cfg = write_mini_config(tmp_path)
    data = tmp_path / "data.jsonl"
    assert main(["synth", "--config", cfg, "--count", "4", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["context"] = [row + [0.0] for row in rec["context"]]
    lines[3] = json.dumps(rec, sort_keys=True)
    data.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "urbanflows", "train-zone", "--config", cfg,
         "--dataset", str(data), "--out-ckpt", str(tmp_path / "z.ckpt")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "P + 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "z.ckpt").exists()


def test_cli_parse_errors_name_the_path_and_line(tmp_path, capsys):
    """A malformed dataset record or config line is reported as
    ``path:line: message``."""
    cfg = write_mini_config(tmp_path)
    data = tmp_path / "data.jsonl"
    assert main(["synth", "--config", cfg, "--count", "4", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    rec = json.loads(lines[3])  # the third record
    rec["context"] = [row + [0.0] for row in rec["context"]]
    lines[3] = json.dumps(rec, sort_keys=True)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train-zone", "--config", cfg, "--dataset", str(data),
                 "--out-ckpt", str(tmp_path / "z.ckpt")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data}:4: bad record: ")

    bad_cfg = tmp_path / "bad.cfg"
    text = (tmp_path / "mini.cfg").read_text()
    bad_cfg.write_text(text + "steps_zone 3\n")
    assert main(["synth", "--config", str(bad_cfg), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 1
    line = len(text.splitlines()) + 1
    assert capsys.readouterr().err.startswith(f"error: {bad_cfg}:{line}: expected ")


def test_cli_parser_is_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "train-zone" in capsys.readouterr().out
    assert cli.build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("argv,message", [
    (["generate", "--ckpt", "m.ckpt", "--green-level", "x", "--out-dir", "g"],
     "urbanflows generate: argument --green-level: invalid int value: 'x'"),
    (["generate", "--green-level", "1", "--out-dir", "g"],
     "urbanflows generate: the following arguments are required: --ckpt"),
    (["sample"], "urbanflows: argument command: invalid choice: 'sample'"),
    ([], "urbanflows: the following arguments are required: command"),
    (["synth", "--count", "1", "--out", "d.jsonl", "--steps", "3"],
     "urbanflows: unrecognized arguments: --steps 3"),
    (["evaluate", "--ckpt"], "urbanflows evaluate: argument --ckpt: expected one argument"),
], ids=["bad-int", "missing-option", "unknown-command", "no-command", "unknown-option",
        "missing-value"])
def test_cli_usage_error_exits_1(tmp_path, capsys, monkeypatch, argv, message):
    """A malformed argv is a typed error: exit 1 with one ``error:`` line,
    no usage dump and nothing written."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [[], ["synth"], ["train-zone"], ["train-config"],
                                     ["generate"], ["trace"], ["evaluate"]])
def test_cli_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: urbanflows")


@pytest.mark.parametrize("command,stage_fn,stage", [
    ("train-zone", "train_zone_stage", "zone"),
    ("train-config", "train_config_stage", "config"),
])
def test_train_commands_write_the_last_good_state_on_a_fault(tmp_path, capsys, monkeypatch,
                                                              command, stage_fn, stage):
    """Both training commands write the checkpoint and the loss log of the
    steps that ran, then report the fault and exit 1."""
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = str(tmp_path / "data.jsonl")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    zone_ckpt = str(tmp_path / "zone.ckpt")
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", zone_ckpt]) == 0
    capsys.readouterr()

    def faulty_stage(bundle, samples, rng, log):
        log(0, 1.5, {})
        log(1, 0.25, {})
        raise TrainingFault("non-finite zone NLL at step 2")

    monkeypatch.setattr(cli, stage_fn, faulty_stage)
    out = str(tmp_path / "out.ckpt")
    extra = ["--zone-ckpt", zone_ckpt] if command == "train-config" else []
    assert main([command, "--config", cfg, "--dataset", data, "--out-ckpt", out,
                 *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: non-finite zone NLL at step 2 "
                            "(last-good checkpoint written)\n")
    assert read_header(out)[0]["extra"] == {"stage": stage}
    log_lines = open(out + ".log").read().splitlines()
    assert log_lines[2:] == ["0\t1.500000000000", "1\t0.250000000000"]


@pytest.mark.parametrize("command,message", [
    ("train-zone", "non-finite zone NLL at step 1"),
    ("train-config", "sampled zone map: non-finite state after inverting layer"),
], ids=["train-zone", "train-config"])
def test_diverging_training_ends_in_a_fault_with_the_last_good_state(tmp_path, capsys,
                                                                     command, message):
    """At lr=1e300 the first step leaves finite but overflowing parameters,
    and the second step turns them non-finite: in stage 1 in the zone NLL,
    in stage 2 already in the sampled zone map.  Both commands report the
    fault (no ``RuntimeWarning`` on the way) and write the last good state,
    which ``generate`` then refuses with a ``SamplingFault``."""
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = str(tmp_path / "data.jsonl")
    zone_ckpt = str(tmp_path / "zone.ckpt")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", zone_ckpt]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.ckpt")
    extra = ["--zone-ckpt", zone_ckpt] if command == "train-config" else []
    assert main([command, "--config", cfg, "--dataset", data, "--out-ckpt", out, *extra,
                 "--set", "lr=1e300", "--set", "steps_zone=3", "--set", "steps_config=3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "(last-good checkpoint written)" in err
    assert read_header(out)[0]["extra"] == {"stage": command[len("train-"):]}
    assert open(out + ".log").read().splitlines()[2:][0].startswith("0\t")
    assert main(["generate", "--ckpt", out, "--green-level", "1",
                 "--out-dir", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err.startswith("error: non-finite state after inverting layer")


def test_overflow_in_a_finite_training_run_is_silent(tmp_path, capsys):
    """At lr=1e30 stage 2 overflows on the way (GELU's slope) but trains to
    finite values, so it runs to the end without a ``RuntimeWarning``."""
    tiny = tiny_set_args(steps_zone=3, steps_config=3)
    data = str(tmp_path / "data.jsonl")
    zone_ckpt = str(tmp_path / "zone.ckpt")
    assert main(["synth", "--count", "12", "--out", data, *tiny]) == 0
    assert main(["train-zone", "--dataset", data, "--out-ckpt", zone_ckpt, *tiny]) == 0
    assert main(["train-config", "--dataset", data, "--zone-ckpt", zone_ckpt,
                 "--out-ckpt", str(tmp_path / "model.ckpt"), *tiny, "--set", "lr=1e30"]) == 0


@pytest.mark.parametrize("command", ["train-zone", "train-config"])
def test_train_commands_reject_empty_config_hidden(tmp_path, capsys, command):
    """``config_hidden=`` parses to no width, which would leave stage 2's
    AR conditioners without their condition terms: both training commands
    refuse it before writing anything."""
    cfg = write_mini_config(tmp_path, steps_zone=0)
    data = str(tmp_path / "data.jsonl")
    zone_ckpt = str(tmp_path / "zone.ckpt")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", zone_ckpt]) == 0
    capsys.readouterr()
    out = tmp_path / "out.ckpt"
    extra = ["--zone-ckpt", zone_ckpt] if command == "train-config" else []
    assert main([command, "--config", cfg, "--dataset", data, "--out-ckpt", str(out), *extra,
                 "--set", "config_hidden="]) == 1
    assert capsys.readouterr().err == "error: config_hidden needs at least one width\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-zone", "train-config"])
def test_train_commands_on_an_empty_dataset_write_nothing(tmp_path, capsys, command):
    """An input error raised before the first step is not a training fault:
    the command exits 1 and leaves a good checkpoint and log at
    ``--out-ckpt`` as they were."""
    cfg = write_mini_config(tmp_path, steps_zone=1)
    data, empty = str(tmp_path / "data.jsonl"), str(tmp_path / "empty.jsonl")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    assert main(["synth", "--config", cfg, "--count", "0", "--out", empty]) == 0
    out = tmp_path / "out.ckpt"
    assert main(["train-zone", "--config", cfg, "--dataset", data, "--out-ckpt", str(out)]) == 0
    good = out.read_bytes(), (tmp_path / "out.ckpt.log").read_bytes()
    capsys.readouterr()
    extra = ["--zone-ckpt", str(out)] if command == "train-config" else []
    assert main([command, "--config", cfg, "--dataset", empty, "--out-ckpt", str(out),
                 *extra]) == 1
    assert capsys.readouterr().err == "error: empty dataset\n"
    assert (out.read_bytes(), (tmp_path / "out.ckpt.log").read_bytes()) == good


@pytest.mark.parametrize("key,value", [("green_level", 2.7), ("green_level", True),
                                       ("green_level", 5), ("id", 1.5)])
def test_cli_rejects_a_non_integer_id_or_level(tmp_path, capsys, key, value):
    """``train-zone`` on a dataset whose second record has a float, bool or
    out-of-range level (or a float id) exits 1 with ``path:line:``; before,
    2.7 trained as level 2 and true as level 1."""
    cfg = write_mini_config(tmp_path)
    data = tmp_path / "data.jsonl"
    assert main(["synth", "--config", cfg, "--count", "4", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[key] = value
    lines[2] = json.dumps(rec, sort_keys=True)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out_ckpt = tmp_path / "z.ckpt"
    assert main(["train-zone", "--config", cfg, "--dataset", str(data),
                 "--out-ckpt", str(out_ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:3: bad record: ")
    assert ("guidance level" if key == "green_level" else "id must be an integer") in err
    assert not out_ckpt.exists()


@pytest.mark.parametrize("command", ["train-zone", "train-config", "evaluate"])
@pytest.mark.parametrize("edit,message", [
    (lambda rec: rec["zones"].__setitem__(5, 9), "zone labels must lie in [0, 1]"),
    (lambda rec: rec["context"][3].__setitem__(1, float("nan")), "context values must be finite"),
    (lambda rec: rec["context"][0].__setitem__(0, float("inf")), "context values must be finite"),
    (lambda rec: rec["context"][2].__setitem__(1, "0.5"), "rows of JSON numbers"),
    (lambda rec: rec["context"][5].__setitem__(0, True), "rows of JSON numbers"),
], ids=["label-9", "nan-context", "inf-context", "string-context", "bool-context"])
def test_cli_rejects_out_of_range_labels_and_non_finite_context(tmp_path, capsys, command,
                                                                 edit, message):
    """A zone label past M - 1 used to train and score silently, and a NaN
    context made ``train-zone`` write an untrained checkpoint over
    ``--out-ckpt``, and a string or boolean context value loaded as its
    float; now the command exits 1 naming the line and writes nothing."""
    ckpt = zero_budget_checkpoint(tmp_path)
    cfg = write_mini_config(tmp_path)
    data = tmp_path / "bad.jsonl"
    assert main(["synth", "--config", cfg, "--count", "4", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    rec = json.loads(lines[3])
    edit(rec)
    lines[3] = json.dumps(rec, sort_keys=True)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"train-zone": ["--config", cfg, "--out-ckpt", str(out)],
            "train-config": ["--config", cfg, "--zone-ckpt", ckpt, "--out-ckpt", str(out)],
            "evaluate": ["--ckpt", ckpt, "--out", str(out)]}[command]
    assert main([command, "--dataset", str(data), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:4: bad record: ")
    assert message in err
    assert sorted(os.listdir(tmp_path)) == ["bad.jsonl", "data.jsonl", "mini.cfg", "z.ckpt",
                                            "z.ckpt.log"]


def test_fresh_bundle_init_is_pinned():
    """The initial values of a fresh bundle, pinned by sha256 of its
    payload: layers register (name, shape, init recipe), and a fresh store
    draws the recipes in registration order."""
    pins = {
        "default": (RunConfig(),
                    "b82917d7b62d1a6150a5be51c2b8a72981a9adf7150d7f30524b0e31058bc6b0"),
        "mini": (RunConfig(**MINI),
                 "352953c0856d1812e85799596287e5c6f629dbaa0296b4abeb4521bfa893766e"),
    }
    for name, (rc, digest) in pins.items():
        payload = b"".join(ModelBundle(rc).store.payload_arrays())
        assert hashlib.sha256(payload).hexdigest() == digest, name


def test_bundle_from_checkpoint_lives_in_one_buffer(tmp_path):
    """The CLI builds a loaded bundle on a store opened on the payload:
    each parameter is a writable, C-contiguous view of one buffer, equal to
    the file's bytes, and no two parameters share memory."""
    cfg = write_mini_config(tmp_path, steps_zone=3)
    data = str(tmp_path / "data.jsonl")
    assert main(["synth", "--config", cfg, "--count", "8", "--out", data]) == 0
    ckpt = str(tmp_path / "z.ckpt")
    assert main(["train-zone", "--config", cfg, "--dataset", data,
                 "--out-ckpt", ckpt]) == 0
    blob = open(ckpt, "rb").read()
    header, _ = read_header(ckpt)
    file_values = np.frombuffer(blob, dtype="<f8", offset=len(blob) - header["payload_bytes"])

    bundle = cli._bundle_from_checkpoint(
        ckpt, lambda h: RunConfig.from_sources(None, h["config"]))
    items = list(bundle.store.items())
    assert [[n, list(t.shape)] for n, t in items] == header["manifest"]
    base = items[0][1].data.base
    offset = 0
    for name, t in items:
        arr = t.data
        assert arr.flags.writeable and arr.flags.c_contiguous, name
        assert arr.base is base, name
        assert np.array_equal(arr.ravel(), file_values[offset:offset + arr.size]), name
        offset += arr.size
    assert offset == file_values.size
    for (na, a), (nb, b) in zip(items, items[1:]):
        assert not np.may_share_memory(a.data, b.data), (na, nb)
    assert b"".join(bundle.store.payload_arrays()) == blob[len(blob) - header["payload_bytes"]:]


def test_a_training_step_keeps_an_opened_store_in_its_buffer():
    """After a stage-2 step on a store opened on a payload, every parameter,
    the batch-norm running statistics included, is still a view of the
    payload's buffer, so the buffer holds the step's values."""
    fresh = mini_bundle()
    payload = bytearray(b"".join(fresh.store.payload_arrays()))
    bundle = ModelBundle(fresh.cfg, ParameterStore.opened(fresh.store.manifest(), payload))
    rc = bundle.cfg
    samples = make_dataset(16, rc.n, rc.m, rc.p, seed=2)
    train_config_stage(bundle, samples, np.random.default_rng(0), steps=1)
    buffer = np.frombuffer(payload, dtype="<f8")
    for name, t in bundle.store.items():
        assert np.shares_memory(t.data, buffer), name
    moved = [name for name, t in bundle.store.items()
             if not np.array_equal(t.data, fresh.store[name].data)]
    assert any(name.endswith(".running_mean") for name in moved)
    assert any(name.endswith(".running_var") for name in moved)
    assert bytes(payload) == b"".join(bundle.store.payload_arrays())


def test_cli_module_entry_point(tmp_path):
    out = str(tmp_path / "d.jsonl")
    proc = subprocess.run(
        [sys.executable, "-m", "urbanflows", "synth", "--count", "2",
         "--set", "n=4", "--set", "m=2", "--set", "p=2", "--set", "n_cx=2",
         "--set", "stem_channels=2", "--set", "heads=1", "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 samples" in proc.stdout

def test_cli_generate_twice_writes_identical_files(tmp_path, monkeypatch):
    """Batched generation, here in chunks of two, writes the same bytes to
    every file on every run under a fixed seed."""
    ckpt = zero_budget_checkpoint(tmp_path)
    monkeypatch.setattr(cli, "_GENERATE_CHUNK", 2)
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["trace", "--ckpt", ckpt, "--green-level", "3", "--count", "5",
                     "--seed", "4", "--out-dir", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    a, b = runs
    steps = 3 * MINI["k_config"] + 1
    assert len(a) == 1 + 5 * (2 + steps)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name
    records = [json.loads(line) for line in a["configs.jsonl"].splitlines()[1:]]
    assert [r["id"] for r in records] == list(range(5))


@pytest.mark.parametrize("context", [["--context-seed", "2"],
                                     ["--dataset", "{data}", "--sample-id", "{sid}"]],
                         ids=["context-seed", "dataset"])
def test_cli_trace_is_generate_with_trace(tmp_path, monkeypatch, context):
    """`trace` and `generate --trace`, given the same arguments, write
    byte-identical directories."""
    ckpt = zero_budget_checkpoint(tmp_path)
    data = str(tmp_path / "data.jsonl")
    sid = str(read_dataset(data)[0].ids[-1])
    monkeypatch.setattr(cli, "_GENERATE_CHUNK", 2)
    args = ["--ckpt", ckpt, "--green-level", "2", "--count", "3", "--seed", "6",
            *(a.format(data=data, sid=sid) for a in context)]
    runs = []
    for argv in (["trace", *args], ["generate", *args, "--trace"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--out-dir", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(runs[0]) == 1 + 3 * (2 + 3 * MINI["k_config"] + 1)
    assert runs[0] == runs[1]


def test_traced_generation_is_pinned(tmp_path):
    """The bytes of every file a traced `generate` writes, pinned by sha256:
    the configurations, the traces and the step frames of three samples of
    a perturbed mini model, so that no change to how ``generate_batch``
    holds a trace changes the files written from it."""
    rc = RunConfig(**MINI)
    bundle = ModelBundle(rc)
    rng = np.random.default_rng(8)
    for _, t in bundle.store.trainable_items():
        t.data += rng.normal(0.0, 0.1, size=t.shape)
    ckpt = tmp_path / "m.ckpt"
    checkpoint.save_checkpoint(ckpt, bundle.store, rc.as_dict())
    out = tmp_path / "gen"
    assert main(["generate", "--trace", "--ckpt", str(ckpt), "--green-level", "2",
                 "--count", "3", "--seed", "5", "--out-dir", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == {
        "configs.jsonl": "b76f3de2dd921fdbfd02f000996f949adc6cb52dd743742e62f7187e0cf44d47",
        "gen000.ppm": "17dcc2bcb41edb704482d90904555af9f3349c1ad3586bd366b345dc6a3a6fd1",
        "gen000.step00.ppm": "2d54c6683052d0665c95f9dde79effb47d1ff0386e3e87e50b171d69c2704878",
        "gen000.step01.ppm": "2d54c6683052d0665c95f9dde79effb47d1ff0386e3e87e50b171d69c2704878",
        "gen000.step02.ppm": "ccbd07a5a1cd192ad8ca0b417afc780089e3c2cbdacb714724e34efe7ca4fbd2",
        "gen000.step03.ppm": "6d5d495b406b6c01c0de5153c40f14ddd21f70caaf85df8bba36c3038d525d18",
        "gen000.step04.ppm": "6d5d495b406b6c01c0de5153c40f14ddd21f70caaf85df8bba36c3038d525d18",
        "gen000.step05.ppm": "6d5d495b406b6c01c0de5153c40f14ddd21f70caaf85df8bba36c3038d525d18",
        "gen000.step06.ppm": "17dcc2bcb41edb704482d90904555af9f3349c1ad3586bd366b345dc6a3a6fd1",
        "gen000.trace.jsonl": "d7e0f545a70c9c14b61d1beaed3cddd538900b9d637e6c9effa59a004b867d75",
        "gen001.ppm": "2954415adb9c5946d6c21e7aced02222823a607fa180505bd79bd66b397292be",
        "gen001.step00.ppm": "b7e6d7a9de55465998c543fbe19cab47d4c5c04c6d11daf703523aed5c289ac0",
        "gen001.step01.ppm": "b7e6d7a9de55465998c543fbe19cab47d4c5c04c6d11daf703523aed5c289ac0",
        "gen001.step02.ppm": "b7e6d7a9de55465998c543fbe19cab47d4c5c04c6d11daf703523aed5c289ac0",
        "gen001.step03.ppm": "b7e6d7a9de55465998c543fbe19cab47d4c5c04c6d11daf703523aed5c289ac0",
        "gen001.step04.ppm": "b7e6d7a9de55465998c543fbe19cab47d4c5c04c6d11daf703523aed5c289ac0",
        "gen001.step05.ppm": "b7e6d7a9de55465998c543fbe19cab47d4c5c04c6d11daf703523aed5c289ac0",
        "gen001.step06.ppm": "2954415adb9c5946d6c21e7aced02222823a607fa180505bd79bd66b397292be",
        "gen001.trace.jsonl": "57d0242318a5aa51556c8b9e24e1bfe19f2a4cbde643d10ff25ac943def3124c",
        "gen002.ppm": "8b53189dfc5384bf03ccb9b6dc32dda77f99e0b3cc69d7f6a63cd68cd24d23f3",
        "gen002.step00.ppm": "8b53189dfc5384bf03ccb9b6dc32dda77f99e0b3cc69d7f6a63cd68cd24d23f3",
        "gen002.step01.ppm": "8b53189dfc5384bf03ccb9b6dc32dda77f99e0b3cc69d7f6a63cd68cd24d23f3",
        "gen002.step02.ppm": "df29a725898864b4a6dabb1261b3291d3b6b62e4ec6b49d145a3bdb675b3594c",
        "gen002.step03.ppm": "8b53189dfc5384bf03ccb9b6dc32dda77f99e0b3cc69d7f6a63cd68cd24d23f3",
        "gen002.step04.ppm": "8b53189dfc5384bf03ccb9b6dc32dda77f99e0b3cc69d7f6a63cd68cd24d23f3",
        "gen002.step05.ppm": "1f13e1570d9abdf8a27475e6f390a3db7c40aa95c97ec2542f596a45199b33bc",
        "gen002.step06.ppm": "8b53189dfc5384bf03ccb9b6dc32dda77f99e0b3cc69d7f6a63cd68cd24d23f3",
        "gen002.trace.jsonl": "d55d93c5e4e08a1c85166fc9943e0f55821b650c7e8b6cbdaa4658f89fc4badf",
    }


def test_cli_checkpoint_header_holds_only_what_a_reader_checks(tmp_path):
    """A CLI-written header holds the config, the stage, the format
    version, the manifest and the payload size, and nothing else."""
    header, _ = read_header(zero_budget_checkpoint(tmp_path))
    assert sorted(header) == ["config", "extra", "format_version", "manifest",
                              "payload_bytes"]
    assert header["extra"] == {"stage": "zone"}


def test_cli_loads_a_checkpoint_that_carries_rng_state(tmp_path, rewrite_header):
    """Checkpoints written before the header dropped ``rng_state`` carry the
    training generator's final state.  The reader ignores the key: such a
    file installs through ``load_checkpoint`` and through the CLI's opened
    store, and `generate` from it writes the same bytes as from the same
    file without the key."""
    ckpt = tmp_path / "z.ckpt"
    assert zero_budget_checkpoint(tmp_path) == str(ckpt)
    old = tmp_path / "old.ckpt"
    old.write_bytes(ckpt.read_bytes())
    state = np.random.default_rng(11).bit_generator.state
    rewrite_header(old, lambda header: header.update(rng_state=state))
    header, payload = read_header(old)
    assert header["rng_state"] == state and bytes(payload) == bytes(read_header(ckpt)[1])

    rc = RunConfig.from_sources(None, header["config"])
    want = ModelBundle(rc).store
    checkpoint.load_checkpoint(ckpt, want)
    loaded = ModelBundle(rc).store
    checkpoint.load_checkpoint(old, loaded)
    opened = cli._bundle_from_checkpoint(
        old, lambda h: RunConfig.from_sources(None, h["config"])).store
    for store in (loaded, opened):
        assert store.names() == want.names()
        for name in want.names():
            assert store[name].data.tobytes() == want[name].data.tobytes()

    for path, out in ((ckpt, "new"), (old, "old")):
        assert main(["generate", "--ckpt", str(path), "--green-level", "3", "--count", "2",
                     "--seed", "9", "--out-dir", str(tmp_path / out)]) == 0
    for name in ("configs.jsonl", "gen000.ppm", "gen001.ppm"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


@pytest.mark.parametrize("command", ["generate", "trace"])
@pytest.mark.parametrize("flags,message", [
    (["--sample-id", "0"], "--sample-id requires --dataset"),
    (["--dataset", "{data}", "--sample-id", "{sid}", "--context-seed", "1"],
     "--context-seed cannot be used with --dataset"),
])
def test_cli_rejects_contradictory_context_flags(tmp_path, capsys, command, flags, message):
    """A sample id with no dataset, or a context seed beside a dataset,
    exits 1 before writing anything; before, the first silently used the
    synthesized context and the second ignored the seed."""
    ckpt = zero_budget_checkpoint(tmp_path)
    data = str(tmp_path / "data.jsonl")
    sid = str(read_dataset(data)[0].ids[0])
    out = tmp_path / "g"
    capsys.readouterr()
    argv = [command, "--ckpt", ckpt, "--green-level", "1", "--out-dir", str(out),
            *(f.format(data=data, sid=sid) for f in flags)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "trace"])
@pytest.mark.parametrize("flag", ["--seed", "--context-seed"])
def test_cli_rejects_a_negative_seed_before_writing(tmp_path, capsys, command, flag):
    """A negative generation or context seed exits 1 naming the flag and
    writes nothing; before, numpy's ``ValueError`` ended the command in a
    traceback."""
    ckpt = zero_budget_checkpoint(tmp_path)
    out = tmp_path / "g"
    capsys.readouterr()
    assert main([command, "--ckpt", ckpt, "--green-level", "1", "--out-dir", str(out),
                 flag, "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 0, got -1\n"
    assert not out.exists()


def test_cli_trace_quantizes_each_step_once_per_batch(tmp_path, monkeypatch):
    """`trace` renders every step frame from the counts ``generate_batch``
    quantized: one ``quantize_config_batch`` call for the configurations and
    one per trace step, per batch, and none per sample.  Each frame is the
    rendering of its step's quantized state."""
    ckpt = zero_budget_checkpoint(tmp_path)
    monkeypatch.setattr(cli, "_GENERATE_CHUNK", 2)
    calls = []
    for module in (pipeline, config_flow):
        def counted(vecs, *args, real=module.quantize_config_batch):
            calls.append(len(vecs))
            return real(vecs, *args)
        monkeypatch.setattr(module, "quantize_config_batch", counted)
    out = tmp_path / "t"
    assert main(["trace", "--ckpt", ckpt, "--green-level", "3", "--count", "3",
                 "--seed", "4", "--out-dir", str(out)]) == 0
    steps = 3 * MINI["k_config"] + 1
    assert calls == [2] * (1 + steps) + [1] * (1 + steps)
    want = tmp_path / "want.ppm"
    for i in range(3):
        lines = (out / f"gen{i:03d}.trace.jsonl").read_text().splitlines()[1:]
        assert len(lines) == steps
        for rec in map(json.loads, lines):
            counts = encoding_reference.quantize_config(np.array(rec["state"]),
                                                        MINI["n"], MINI["p"])
            render_config_ppm(str(want), counts)
            frame = out / f"gen{i:03d}.step{rec['step']:02d}.ppm"
            assert frame.read_bytes() == want.read_bytes(), frame.name


@pytest.mark.parametrize("name,value,message", [
    ("config.block0.mar.h0.w", np.nan, "non-finite"),
    ("fusion.attn.wq", np.inf, "non-finite"),
    ("zone.block1.bn.running_var", 0.0, "variance <= 0"),
])
def test_cli_generate_rejects_bad_parameter_value(tmp_path, capsys, name, value,
                                                  message):
    ckpt = zero_budget_checkpoint(tmp_path)
    header, payload = read_header(ckpt)
    offset = 0
    for entry, shape in header["manifest"]:
        if entry == name:
            break
        offset += 8 * int(np.prod(shape))
    else:
        raise AssertionError(f"{name} not in the manifest")
    with open(ckpt, "rb") as fh:
        blob = fh.read()
    start = len(blob) - len(payload) + offset
    with open(ckpt, "wb") as fh:
        fh.write(blob[:start] + np.array([value], "<f8").tobytes() + blob[start + 8:])
    capsys.readouterr()
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "1",
               "--out-dir", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 1 and f"parameter {name} " in err and message in err
    assert not (tmp_path / "g").exists()

    header, _ = read_header(ckpt)
    bundle = ModelBundle(RunConfig.from_sources(None, header["config"]))
    before = b"".join(bundle.store.payload_arrays())
    with pytest.raises(CheckpointValueError):
        checkpoint.load_checkpoint(ckpt, bundle.store)
    assert b"".join(bundle.store.payload_arrays()) == before
