"""Toy-scale smoke test of the benchmark itself.

Runs every workload, untraced and traced, at the smallest model sizes
(those of ``mini_runconfig`` in ``tests/conftest.py``) with a few operations
each, and checks the result schema against ``BENCHMARK.json``.  It asserts
no timing.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TOY = workloads.Scale(
    run_config=(("n", 4), ("m", 2), ("p", 2), ("k_zone", 1), ("k_config", 1),
                ("zone_hidden", (6,)), ("config_hidden", (6,)), ("heads", 1),
                ("stem_channels", 2), ("n_cx", 2), ("batch_size", 4)),
    dataset=12, setup_repeats=2, setup_zone_steps=4, setup_config_steps=3,
    rounds=2, zone_chunks=2, gen_rounds=2, eval_cli_calls=2, cli_zone_steps=3, zone_steps=4, config_steps=200,
    loss_window=40, gen_count=2, one_calls=2, batch=4, nll_calls=4,
    probe_reps=1,
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_run_emits_every_metric(workload, trace, tmp_path):
    out, info = bench.run(workload, 3, 0, trace, str(tmp_path), scale=TOY)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, info["failures"]
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    json.loads(json.dumps(out))


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PASSES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tracer_restores_every_patched_object():
    import urbanflows  # noqa: F401

    def snapshot():
        seen = {}
        for name, module in sys.modules.items():
            if name.startswith("urbanflows"):
                for attr, value in vars(module).items():
                    seen[(name, attr)] = value
                    if isinstance(value, type):
                        for member, raw in vars(value).items():
                            seen[(name, attr, member)] = raw
        return seen

    before = snapshot()
    tracer = Tracer(layers.BUCKETS, layers.counters())
    tracer.install()
    try:
        assert snapshot() != before
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
