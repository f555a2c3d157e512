"""Row-parallel inference: the dataset NLLs and ``generate_batch`` run
128-row blocks on several threads and must give the same numbers for any
worker count.  The worker count is forced through ``pipeline._WORKERS``;
None leaves it to the automatic rule, which ``test_worker_rule_table``
checks.  With ``OPENBLAS_NUM_THREADS=1`` on two or more cores that rule
picks several workers too."""

import os
import signal
import sys
import threading

import numpy as np
import pytest

from conftest import mini_runconfig
from urbanflows import pipeline
from urbanflows.config_flow import dequantize_config_batch
from urbanflows.errors import SamplingFault
from urbanflows.flow_layers import Conditioner
from urbanflows.numerics import ParameterStore, Tensor, no_grad
from urbanflows.pipeline import (
    ModelBundle,
    dataset_arrays,
    eval_config_nll,
    eval_zone_nll,
    generate_batch,
    generate_one,
)
from urbanflows.synthdata import make_dataset
from urbanflows.zone_flow import dequantize_zone_batch, nll_tensors

WORKERS = (None, 1, 2, 3)
ROWS = 300  # blocks of 128, 128 and 44 rows


@pytest.fixture(scope="module")
def bundle():
    """A mini bundle with every trainable parameter perturbed, so that no
    layer is the identity and the AR inverses take several sweeps."""
    b = ModelBundle(mini_runconfig(k_config=2))
    rng = np.random.default_rng(8)
    for _, t in b.store.trainable_items():
        t.data += rng.normal(0.0, 0.1, size=t.shape)
    return b


@pytest.fixture(scope="module")
def samples(bundle):
    rc = bundle.cfg
    return make_dataset(ROWS, rc.n, rc.m, rc.p, seed=21)


def serial_nlls(bundle, samples, seed, chunk=256):
    """Zone and config NLLs as one loop over 256-row chunks on one thread."""
    rc = bundle.cfg
    es, zones, counts, _ = dataset_arrays(samples)
    xz = dequantize_zone_batch(zones, rc.m, np.random.default_rng(seed))
    xc = dequantize_config_batch(counts, np.random.default_rng(seed))
    zone, config = [], []
    with no_grad():
        for lo in range(0, len(samples), chunk):
            hi = lo + chunk
            zone.append(nll_tensors(bundle.zone, Tensor(xz[lo:hi]), Tensor(es[lo:hi]),
                                    mode="eval", update_stats=False)[1])
            c = bundle.fusion.embed(zones[lo:hi], es[lo:hi])
            config.append(nll_tensors(bundle.config, Tensor(xc[lo:hi]),
                                      bundle.config.condition_of(c),
                                      mode="eval", update_stats=False)[1])
    return float(np.concatenate(zone).mean()), float(np.concatenate(config).mean())


def test_eval_nlls_equal_for_any_worker_count(bundle, samples, monkeypatch):
    want = serial_nlls(bundle, samples, seed=4)
    for workers in WORKERS:
        monkeypatch.setattr(pipeline, "_WORKERS", workers)
        got = (eval_zone_nll(bundle, samples, seed=4),
               eval_config_nll(bundle, samples, seed=4))
        assert got == want, workers


def _generate(bundle, samples):
    es = dataset_arrays(samples)[0]
    zms, cts, traces = generate_batch(bundle, es, np.random.default_rng(6), trace=True)
    return (np.stack([zm.labels for zm in zms]),
            np.stack([ct.counts for ct in cts]),
            np.stack([[st.state for st in tr] for tr in traces]),
            np.stack([[st.histogram for st in tr] for tr in traces]),
            [(st.layer_index, st.layer_type) for st in traces[0]])


def test_generate_batch_equal_for_any_worker_count(bundle, samples, monkeypatch):
    # one block of all 300 rows is the unsplit batch
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", ROWS)
    want = _generate(bundle, samples)
    monkeypatch.undo()
    assert len(want[4]) == 3 * bundle.cfg.k_config + 1
    for workers in WORKERS:
        monkeypatch.setattr(pipeline, "_WORKERS", workers)
        got = _generate(bundle, samples)
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b), workers
        assert got[4] == want[4]


@pytest.mark.parametrize("workers", WORKERS)
def test_poisoned_layer_names_the_same_layer_at_any_batch(samples, monkeypatch, workers):
    monkeypatch.setattr(pipeline, "_WORKERS", workers)
    poisoned = ModelBundle(mini_runconfig(k_config=2))
    d = poisoned.cfg.d_config
    # flat layers: mar0 uar0 bn0 mar1 uar1 bn1; the shift of coordinate 0
    poisoned.store["config.block0.uar.out.b"].data[d] = np.inf
    es = dataset_arrays(samples)[0]
    faults = []
    for rows in (1, ROWS):
        with pytest.raises(SamplingFault) as info:
            generate_batch(poisoned, es[:rows], np.random.default_rng(2))
        faults.append((info.value.layer_index, str(info.value)))
    assert faults[0] == faults[1]
    assert faults[0][0] == 1


def test_first_failing_block_is_raised_after_every_block_ran(monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 2)
    ran = []

    def block(lo, hi):
        ran.append(lo)
        if lo >= 128:
            raise ValueError(f"block at {lo}")
        return lo

    with no_grad(), pytest.raises(ValueError, match="block at 128$"):
        pipeline._row_blocks(4 * 128, block)
    assert sorted(ran) == [0, 128, 256, 384]
    with no_grad():
        assert pipeline._row_blocks(300, lambda lo, hi: (lo, hi)) == [
            (0, 128), (128, 256), (256, 300)]


def test_blocks_need_no_grad_and_see_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 2)
    with pytest.raises(RuntimeError, match="no_grad"):
        pipeline._row_blocks(300, lambda lo, hi: lo)
    both = threading.Barrier(2, timeout=30)  # each block waits for a block on the other thread

    def block(lo, hi):
        both.wait()
        return threading.get_ident(), np.geterr()["over"], np.geterr()["invalid"]

    with no_grad(), np.errstate(over="ignore", invalid="raise"):
        seen = pipeline._row_blocks(4 * 128, block)
    assert len({ident for ident, _, _ in seen}) == 2
    assert [state for _, *state in seen] == [["ignore", "raise"]] * 4


def test_conditioner_calls_exact_under_two_threads():
    store = ParameterStore()
    net = Conditioner(store, "net", 4, 4, np.random.default_rng(0), widths=(5,), cond_dim=3,
                      mask_seed=0)
    passes = 3000
    start = threading.Barrier(2)

    def run():
        conditioner_pass = net.bind(np.ones((2, 3)))
        x = np.zeros((2, 4))
        start.wait()
        for _ in range(passes):
            conditioner_pass(x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with no_grad():
            threads = [threading.Thread(target=run) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(interval)
    assert net.calls == 2 * passes


def test_generate_one_starts_no_thread(bundle, samples, monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 3)
    before = threading.active_count()
    generate_one(bundle, dataset_arrays(samples[:1])[0][0], np.random.default_rng(1))
    assert threading.active_count() == before


def _row_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("urbanflows-rows")]


def test_no_row_thread_outlives_its_call(monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 3)

    def block(lo, hi):
        if lo == 256:
            raise ValueError("bad block")
        return lo

    with no_grad():
        assert pipeline._row_blocks(4 * 128, lambda lo, hi: lo) == [0, 128, 256, 384]
        assert _row_threads() == []
        with pytest.raises(ValueError, match="bad block"):
            pipeline._row_blocks(4 * 128, block)
    assert _row_threads() == []


@pytest.mark.parametrize("cpus,env,workers", [
    (2, {}, 1),                                         # BLAS takes every core
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
    (8, {"OPENBLAS_NUM_THREADS": "3"}, 2),
    (8, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8),  # OpenBLAS first
    (8, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4"}, 2),  # 0 falls through
    (8, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4),
    (8, {"OMP_NUM_THREADS": "2,1"}, 4),                 # nested OpenMP list
    (8, {"OPENBLAS_NUM_THREADS": ""}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "16"}, 1),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
])
def test_worker_rule_table(cpus, env, workers):
    assert pipeline._worker_rule(cpus, env) == workers


def test_forked_child_runs_row_blocks(monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 2)
    with no_grad():
        assert pipeline._row_blocks(300, lambda lo, hi: lo) == [0, 128, 256]
    pid = os.fork()
    if pid == 0:  # child: a threaded call after the parent ran one
        signal.alarm(30)
        with no_grad():
            ok = pipeline._row_blocks(300, lambda lo, hi: lo) == [0, 128, 256]
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
