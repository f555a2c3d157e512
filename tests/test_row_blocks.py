"""Row-parallel inference: the dataset NLLs cut their rows into near-equal
blocks of at most 256 rows and ``generate_batch`` into blocks of at most
128, at least two once there are more than 128 rows
(``test_block_cut_table``); the blocks run on several threads and must give
the same numbers for any worker count.  The worker count is forced through
``pipeline._WORKERS``; None leaves it to the automatic rule, which
``test_worker_rule_table`` checks.  With ``OPENBLAS_NUM_THREADS=1`` on two
or more cores that rule picks several workers too.  Every call takes one
path: worker w runs blocks w, w + workers, ..., worker 0 on the calling
thread, and the call holds ``no_grad`` itself."""

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
from urbanflows.numerics import ParameterStore, Tensor, grad_enabled, no_grad
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
ROWS = 300  # NLL blocks of 150 and 150 rows, sampling blocks of 100 rows
# the 128-row blocks of earlier versions cut these into 128 + 1, 128 + 128 + 1
# and 3 x 128 + 116 rows; the NLLs now cut them into 64 + 65, 128 + 129 and
# 250 + 250 rows, and sampling into 64 + 65, 3 x 85-86 and 4 x 125
EQUAL_ROWS = (129, 257, ROWS, 500)


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
    return make_dataset(max(EQUAL_ROWS), rc.n, rc.m, rc.p, seed=21)


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
    for rows in EQUAL_ROWS:
        want = serial_nlls(bundle, samples[:rows], seed=4)
        for workers in WORKERS:
            monkeypatch.setattr(pipeline, "_WORKERS", workers)
            got = (eval_zone_nll(bundle, samples[:rows], seed=4),
                   eval_config_nll(bundle, samples[:rows], seed=4))
            assert got == want, (rows, workers)


def _generate(bundle, samples):
    es = dataset_arrays(samples)[0]
    zms, cts, traces = generate_batch(bundle, es, np.random.default_rng(6), trace=True)
    return (np.stack([zm.labels for zm in zms]),
            np.stack([ct.counts for ct in cts]),
            np.stack([[st.state for st in tr] for tr in traces]),
            np.stack([[st.histogram for st in tr] for tr in traces]),
            [(st.layer_index, st.layer_type) for st in traces[0]])


def test_generate_batch_equal_for_any_worker_count(bundle, samples, monkeypatch):
    for rows in EQUAL_ROWS:
        monkeypatch.setattr(pipeline, "_block_bounds", lambda n, most: [(0, n)])
        want = _generate(bundle, samples[:rows])
        monkeypatch.undo()
        assert len(want[4]) == 3 * bundle.cfg.k_config + 1
        for workers in WORKERS:
            monkeypatch.setattr(pipeline, "_WORKERS", workers)
            got = _generate(bundle, samples[:rows])
            for a, b in zip(got[:4], want[:4]):
                assert np.array_equal(a, b), (rows, workers)
            assert got[4] == want[4]


def test_nlls_pass_256_row_blocks_and_sampling_128(bundle, samples, monkeypatch):
    seen = []
    row_blocks = pipeline._row_blocks

    def spy(n, most, fn):
        seen.append((n, most))
        return row_blocks(n, most, fn)

    monkeypatch.setattr(pipeline, "_row_blocks", spy)
    eval_zone_nll(bundle, samples[:ROWS])
    eval_config_nll(bundle, samples[:ROWS])
    _generate(bundle, samples[:ROWS])
    assert seen == [(ROWS, 256), (ROWS, 256), (ROWS, 128)]


def test_generate_batch_of_zero_rows_is_empty(bundle):
    es = np.empty((0, bundle.cfg.info_dim))
    assert generate_batch(bundle, es, np.random.default_rng(0)) == ([], [], None)
    assert generate_batch(bundle, es, np.random.default_rng(0), trace=True) == ([], [], [])


@pytest.mark.parametrize("most", [pipeline._PASS_ROWS, pipeline._SAMPLE_ROWS])
@pytest.mark.parametrize("n", [0, 1, 64, 128, 129, 255, 256, 257, 300, 500, 513, 1000])
def test_block_cut_table(n, most, monkeypatch):
    cuts = []
    for workers in WORKERS:
        monkeypatch.setattr(pipeline, "_WORKERS", workers)
        cuts.append(pipeline._row_blocks(n, most, lambda lo, hi: (lo, hi)))
    bounds = cuts[0]
    assert all(cut == bounds for cut in cuts)
    edges = [0] + [hi for _, hi in bounds]  # contiguous from 0 to n
    assert [lo for lo, _ in bounds] == edges[:-1] and edges[-1] == n
    sizes = [hi - lo for lo, hi in bounds]
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert max(sizes, default=0) <= most <= 256
    assert len(bounds) >= 2 or n <= 128
    assert len(bounds) == max(-(-n // most), min(2, -(-n // 128)))


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
    for workers in WORKERS:  # one worker runs every block too
        monkeypatch.setattr(pipeline, "_WORKERS", workers)
        ran = []

        def block(lo, hi):
            ran.append(lo)
            if lo >= 250:
                raise ValueError(f"block at {lo}")
            return lo

        with pytest.raises(ValueError, match="block at 250$"):
            pipeline._row_blocks(1000, pipeline._PASS_ROWS, block)  # four blocks of 250 rows
        assert sorted(ran) == [0, 250, 500, 750], workers
    assert pipeline._row_blocks(257, pipeline._PASS_ROWS, lambda lo, hi: (lo, hi)) == [
        (0, 128), (128, 257)]


def test_blocks_run_without_grad_and_see_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 2)
    both = threading.Barrier(2, timeout=30)  # each block waits for a block on the other thread

    def block(lo, hi):
        both.wait()
        return (threading.get_ident(), grad_enabled(), np.geterr()["over"],
                np.geterr()["invalid"])

    assert grad_enabled()
    with np.errstate(over="ignore", invalid="raise"):
        seen = pipeline._row_blocks(1000, pipeline._PASS_ROWS, block)
    assert grad_enabled()
    assert len({ident for ident, *_ in seen}) == 2
    assert [state for _, *state in seen] == [[False, "ignore", "raise"]] * 4


def test_block_i_runs_on_worker_i_mod_workers(monkeypatch):
    monkeypatch.setattr(pipeline, "_WORKERS", 2)
    names = pipeline._row_blocks(1000, pipeline._PASS_ROWS,
                                 lambda lo, hi: threading.current_thread().name)
    caller = threading.current_thread().name
    assert names == [caller, "urbanflows-rows-1", caller, "urbanflows-rows-1"]


def test_cpus_counted_without_sched_getaffinity(bundle, samples, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert pipeline._WORKERS is None
    _, config, _ = generate_one(bundle, dataset_arrays(samples[:1])[0][0],
                                np.random.default_rng(1))
    assert config.counts.shape == (bundle.cfg.n, bundle.cfg.n, bundle.cfg.p)
    assert np.isfinite(eval_zone_nll(bundle, samples[:ROWS]))


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
        if lo == 500:
            raise ValueError("bad block")
        return lo

    assert pipeline._row_blocks(1000, pipeline._PASS_ROWS, lambda lo, hi: lo) == [
        0, 250, 500, 750]
    assert _row_threads() == []
    with pytest.raises(ValueError, match="bad block"):
        pipeline._row_blocks(1000, pipeline._PASS_ROWS, block)
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
    lows = [0, 250, 500, 750]
    assert pipeline._row_blocks(1000, pipeline._PASS_ROWS, lambda lo, hi: lo) == lows
    pid = os.fork()
    if pid == 0:  # child: a threaded call after the parent ran one
        signal.alarm(30)
        ok = pipeline._row_blocks(1000, pipeline._PASS_ROWS, lambda lo, hi: lo) == lows
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
