"""End-to-end pipeline behavior and the command-line interface.

CLI tests call cli.main(argv) in-process; one smoke test goes through
``python3 -m urbanflows`` to cover the real entry point.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from urbanflows import checkpoint, cli, pipeline
from urbanflows.checkpoint import read_header
from urbanflows.cli import main
from urbanflows.config_flow import dequantize_config_batch
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
    train_zone_stage,
)
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import build_info_vector, make_dataset, read_dataset
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
                store[n].data = store[n].data + 1.0
            per = per.copy()
            per[1] = np.nan
        return mean, per

    monkeypatch.setattr(pipeline, "nll_tensors", faulty_nll)
    with pytest.raises(TrainingFault, match="step 2"):
        train_zone_stage(bundle, samples, np.random.default_rng(0), steps=5,
                         log=lambda step, loss: good.append(store.snapshot()))
    assert any(n.endswith(".running_mean") for n in moved)
    for name, arr in good[-1].items():
        want = arr + 1.0 if name in others else arr
        assert np.array_equal(store[name].data, want), name


def test_dataset_arrays_matches_per_sample_info_vectors():
    for seed in (1, 7, 1101):
        samples = make_dataset(23, 4, 2, 3, seed=seed)
        es, zones, counts, levels = dataset_arrays(samples)
        want = np.concatenate([build_info_vector(s.context, s.green_level)
                               for s in samples])
        assert np.array_equal(es, want)
        assert np.array_equal(levels, [s.green_level for s in samples])
    samples[4].green_level = 5
    with pytest.raises(DataError, match="guidance level"):
        dataset_arrays(samples)


def test_generation_shapes_and_determinism():
    bundle = mini_bundle()
    rc = bundle.cfg
    sample = make_dataset(1, rc.n, rc.m, rc.p, seed=7)[0]
    e = build_info_vector(sample.context, 2)[0]

    zm1, ct1, tr = generate_one(bundle, e, np.random.default_rng(4), trace=True)
    zm2, ct2, _ = generate_one(bundle, e, np.random.default_rng(4), trace=True)
    assert zm1.labels.shape == (rc.n, rc.n)
    assert ct1.counts.shape == (rc.n, rc.n, rc.p)
    np.testing.assert_array_equal(zm1.labels, zm2.labels)
    np.testing.assert_array_equal(ct1.counts, ct2.counts)
    assert len(tr) == 3 * rc.k_config + 1
    assert tr[0].layer_type == "latent"
    np.testing.assert_array_equal(tr[-1].histogram, ct1.category_histogram())

    es = np.stack([e] * 6)
    zms, cts, traces = generate_batch(bundle, es, np.random.default_rng(4))
    assert len(zms) == len(cts) == 6
    assert traces is None
    for ct in cts:
        assert ct.counts.shape == (rc.n, rc.n, rc.p)


@pytest.mark.parametrize("trace", [False, True])
def test_generate_one_is_generate_batch_at_b1(trace):
    bundle = mini_bundle()
    rng = np.random.default_rng(8)
    for _, t in bundle.store.trainable_items():
        t.data = t.data + rng.normal(0.0, 0.1, size=t.shape)
    rc = bundle.cfg
    sample = make_dataset(1, rc.n, rc.m, rc.p, seed=7)[0]
    e = build_info_vector(sample.context, 3)[0]
    rng_one, rng_batch = np.random.default_rng(5), np.random.default_rng(5)
    zm, ct, tr = generate_one(bundle, e, rng_one, trace=trace)
    zms, cts, trs = generate_batch(bundle, e[None], rng_batch, trace=trace)
    assert np.array_equal(zm.labels, zms[0].labels)
    assert np.array_equal(ct.counts, cts[0].counts)
    if trace:
        assert len(tr) == len(trs[0])
        for a, b in zip(tr, trs[0]):
            assert (a.layer_index, a.layer_type) == (b.layer_index, b.layer_type)
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.histogram, b.histogram)
    else:
        assert tr is None and trs is None
    # both consumed the same draws, so the streams stay aligned
    assert np.array_equal(rng_one.random(4), rng_batch.random(4))


def test_evaluate_pools_self_comparison_is_zero():
    samples = make_dataset(30, 4, 2, 2, seed=11)
    pools = {}
    for s in samples:
        pools.setdefault(s.green_level, []).append(s.config)
    report = evaluate_pools(pools, pools)
    assert report["warnings"] == []
    assert len(report["levels"]) == 5
    for row in report["levels"]:
        assert abs(row["kl"]) < 1e-12
        assert abs(row["hd"]) < 1e-9
        assert abs(row["wd"]) < 1e-12
    for key in ("KL", "HD", "WD"):
        assert abs(report["avg"][key]) < 1e-9


def test_evaluate_pools_level_mismatch():
    samples = make_dataset(30, 4, 2, 2, seed=11)
    pools = {}
    for s in samples:
        pools.setdefault(s.green_level, []).append(s.config)
    partial = {lvl: v for lvl, v in pools.items() if lvl != 3}
    report = evaluate_pools(pools, partial)
    assert len(report["levels"]) == 4
    assert any("level 3" in w for w in report["warnings"])
    with pytest.raises(DataError):
        evaluate_pools({0: pools[0]}, {1: pools[1]})


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
    samples, meta = read_dataset(empty)
    assert samples == [] and meta["N"] == 4


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
    assert payload == fresh.store.to_payload()


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


@pytest.mark.parametrize("edit,message", [
    (lambda header: header.update(config=5), "config is not a JSON object"),
    (lambda header: header["config"].update(n=[4]), "n: expected an integer"),
])
def test_cli_rejects_mistyped_checkpoint_config(tmp_path, capsys, rewrite_header,
                                                edit, message):
    ckpt = zero_budget_checkpoint(tmp_path)
    rewrite_header(ckpt, edit)
    capsys.readouterr()
    rc = main(["generate", "--ckpt", ckpt, "--green-level", "1",
               "--out-dir", str(tmp_path / "g")])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and message in err


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

    header, payload = read_header(ckpt)
    bundle = ModelBundle(RunConfig.from_sources(None, header["config"]))
    before = bundle.store.to_payload()
    with pytest.raises(CheckpointValueError):
        bundle.store.load_payload(header["manifest"], payload)
    assert bundle.store.to_payload() == before
