"""Two-stage training, generation, and evaluation over a shared model bundle.

A ModelBundle owns one ParameterStore holding three namespaces: ``zone.*``
(stage-1 flow), ``fusion.*`` (extractor, semantic projection, attention) and
``config.*`` (stage-2 flow).  Checkpoints serialize the whole store, so a
stage-1 checkpoint already carries identity-initialized stage-2 parameters
and can be resumed directly by stage-2 training.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config_flow import (
    ConfigFlowModel,
    category_histogram_of,
    config_sample_batch,
    dequantize_config_batch,
    joint_finetune_step,
    quantize_config,
)
from .errors import ConfigurationError, DataError, TrainingFault
from .flow_layers import TraceStep
from .fusion import FusionModule
from .metrics import avg_weighted, hellinger, kl_div, to_distribution, wasserstein_1d
from .numerics import Adam, ParameterStore, Tensor, grad_enabled, no_grad
from .synthdata import GUIDANCE_LEVELS
from .zone_flow import (
    ZoneFlowModel,
    ZoneMap,
    dequantize_zone_batch,
    nll_tensors,
    quantize_zone,
    zone_sample_batch,
)


class ModelBundle:
    """All three model parts over one parameter store."""

    def __init__(self, run_config):
        rc = run_config.validate()
        self.cfg = rc
        self.store = ParameterStore()
        rng = np.random.default_rng(rc.seed)
        self.zone = ZoneFlowModel(
            self.store, "zone", rc.d_zone, rc.info_dim, rng,
            k=rc.k_zone, widths=rc.zone_hidden,
            use_condition_projection=rc.use_condition_projection,
        )
        self.fusion = FusionModule(
            self.store, "fusion", rc.n, rc.m, rc.info_dim, rc.heads, rng,
            stem_channels=rc.stem_channels, n_cx=rc.n_cx,
            drop_path=rc.drop_path, use_geo=rc.use_geo,
            use_attention=rc.use_attention,
        )
        self.config = ConfigFlowModel(
            self.store, "config", rc.d_config, rc.m * rc.info_dim, rng,
            k=rc.k_config, widths=rc.config_hidden,
            use_uncond_ar=rc.use_uncond_ar, attend=self.fusion.attend,
        )

    def named_trainable(self, prefixes=None):
        items = list(self.store.trainable_items())
        if prefixes is None:
            return items
        return [(n, t) for n, t in items if n.startswith(tuple(prefixes))]


def dataset_arrays(samples):
    """Stack a dataset into (es, zone_labels, config_counts, levels).

    Row i of ``es`` is ``build_info_vector(samples[i].context,
    samples[i].green_level)``, built for all samples at once.
    """
    if not samples:
        raise DataError("empty dataset")
    levels = np.array([s.green_level for s in samples], dtype=np.int64)
    if levels.min() < 0 or levels.max() >= GUIDANCE_LEVELS:
        raise DataError(f"guidance level must be an integer in [0, {GUIDANCE_LEVELS - 1}]")
    feats = np.stack([s.context.node_features for s in samples])
    onehot = np.zeros((len(samples), GUIDANCE_LEVELS))
    onehot[np.arange(len(samples)), levels] = 1.0
    es = np.concatenate([feats.mean(axis=1), feats.max(axis=1), onehot], axis=1)
    zones = np.stack([s.zones.labels for s in samples])
    counts = np.stack([s.config.counts for s in samples])
    return es, zones, counts, levels


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


def train_zone_stage(bundle, samples, rng, steps=None, log=None):
    """Stage-1 maximum-likelihood training.

    Returns the per-step loss history.  On a non-finite loss the parameters
    are rolled back to the last good step before the fault propagates, so
    whatever checkpoint the caller writes is the last good state.
    """
    rc = bundle.cfg
    steps = rc.steps_zone if steps is None else steps
    es, zones, _, _ = dataset_arrays(samples)
    total = len(samples)
    opt = Adam(bundle.named_trainable(("zone.",)), lr=rc.lr)
    history = []
    for step in range(steps):
        idx = rng.integers(0, total, size=rc.batch_size)
        x = dequantize_zone_batch(zones[idx], rc.m, rng)
        snap = bundle.store.snapshot("zone.")  # running stats included
        opt.zero_grad()
        mean, per = nll_tensors(bundle.zone, Tensor(x), Tensor(es[idx]),
                                mode="train", update_stats=True)
        loss = float(mean.item())
        if not np.isfinite(per).all():
            bundle.store.restore(snap)
            bad = int(np.flatnonzero(~np.isfinite(per))[0])
            raise TrainingFault(f"non-finite zone NLL at step {step}",
                                sample_index=bad)
        mean.backward()
        opt.step()
        if not all(np.isfinite(t.data).all() for _, t in opt.params):
            bundle.store.restore(snap)
            raise TrainingFault(f"non-finite zone parameters after step {step}")
        history.append((step, loss))
        if log is not None:
            log(step, loss)
    return history


def train_config_stage(bundle, samples, rng, steps=None, log=None):
    """Stage-2 joint fine-tuning (config flow + fusion, zone at reduced lr)."""
    rc = bundle.cfg
    steps = rc.steps_config if steps is None else steps
    es, zones, counts, _ = dataset_arrays(samples)
    total = len(samples)
    named = bundle.named_trainable(("zone.", "fusion.", "config."))
    scales = {n: rc.zone_lr_scale for n, _ in named if n.startswith("zone.")}
    opt = Adam(named, lr=rc.lr, lr_scales=scales)
    history = []
    for step in range(steps):
        idx = rng.integers(0, total, size=rc.batch_size)
        snap = bundle.store.snapshot()
        try:
            parts = joint_finetune_step(
                bundle.zone, bundle.fusion, bundle.config,
                (es[idx], zones[idx], counts[idx]),
                rc.lambda_zone, rng, opt, use_sampled_u=rc.use_sampled_u,
            )
        except TrainingFault:
            bundle.store.restore(snap)
            raise
        if not all(np.isfinite(t.data).all() for _, t in opt.params):
            bundle.store.restore(snap)
            raise TrainingFault(f"non-finite parameters after step {step}")
        history.append((step, parts["total"]))
        if log is not None:
            log(step, parts["total"], parts)
    return history


# ---------------------------------------------------------------------------
# Row-parallel inference
# ---------------------------------------------------------------------------

# rows per block; the cut depends on the row count only, so every output is
# the same for any number of workers
_BLOCK_ROWS = 128
# worker count, or None for ``_worker_rule``; tests force it
_WORKERS = None
_POOL = None
_POOL_THREADS = 0
_POOL_LOCK = threading.Lock()


def _worker_rule(cpus, env):
    """Row workers that leave each BLAS thread a core of its own.

    The BLAS thread count is OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
    else ``cpus``: OpenBLAS's own order, where an unset, zero or
    unparsable value falls through to the next.
    """
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(env.get(var, "").split(",")[0])
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, cpus // blas_threads)


def _forget_pool():
    global _POOL, _POOL_THREADS, _POOL_LOCK
    _POOL, _POOL_THREADS, _POOL_LOCK = None, 0, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _pool(threads):
    """The shared pool, built lazily with at least ``threads`` threads.  A
    pool that is too small is dropped, not shut down: a caller may still
    hold it, and its idle threads exit once it is collected."""
    global _POOL, _POOL_THREADS
    with _POOL_LOCK:
        if _POOL_THREADS < threads:
            _POOL = ThreadPoolExecutor(threads, thread_name_prefix="urbanflows-rows")
            _POOL_THREADS = threads
        return _POOL


def _row_blocks(n, fn):
    """``[fn(lo, hi) for each block]`` over ``n`` rows cut into blocks of at
    most ``_BLOCK_ROWS``, in block order.

    The blocks run on the calling thread plus ``workers - 1`` pool threads,
    each in a copy of the caller's context (numpy's error state lives
    there); one block, or one worker, runs inline.  Whatever the worker
    count, the exception raised is the first failing block's, and a pool
    run raises it only once every block has finished.  The tape's
    grad flag is global to the process, so the caller must hold
    ``no_grad``.
    """
    if grad_enabled():
        raise RuntimeError("row blocks run only under no_grad")
    bounds = [(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS)]
    workers = _WORKERS or _worker_rule(len(os.sched_getaffinity(0)), os.environ)
    workers = min(len(bounds), workers)
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in bounds]
    contexts = [contextvars.copy_context() for _ in bounds]
    results = [None] * len(bounds)
    errors = [None] * len(bounds)
    todo = iter(range(len(bounds)))
    todo_lock = threading.Lock()

    def drain():
        while True:
            with todo_lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = contexts[i].run(fn, *bounds[i])
            except BaseException as exc:  # raised below, in block order
                errors[i] = exc

    pool = _pool(workers - 1)
    helpers = [pool.submit(drain) for _ in range(workers - 1)]
    drain()
    for helper in helpers:
        if not helper.cancel():  # one that has not started would find no block
            helper.result()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# ---------------------------------------------------------------------------
# Evaluation NLLs
# ---------------------------------------------------------------------------


def eval_zone_nll(bundle, samples, seed=0):
    """Eval-mode dataset NLL with seeded dequantization noise."""
    rc = bundle.cfg
    es, zones, _, _ = dataset_arrays(samples)
    rng = np.random.default_rng(seed)
    x = dequantize_zone_batch(zones, rc.m, rng)

    def block_nll(lo, hi):
        return nll_tensors(bundle.zone, Tensor(x[lo:hi]), Tensor(es[lo:hi]),
                           mode="eval", update_stats=False)[1]

    with no_grad():
        vals = _row_blocks(len(samples), block_nll)
    return float(np.concatenate(vals).mean())


def eval_config_nll(bundle, samples, seed=0):
    """Eval-mode stage-2 NLL conditioned on the ground-truth zone maps."""
    es, zones, counts, _ = dataset_arrays(samples)
    rng = np.random.default_rng(seed)
    x = dequantize_config_batch(counts, rng)

    def block_nll(lo, hi):
        c = bundle.fusion.embed(zones[lo:hi], es[lo:hi])
        return nll_tensors(bundle.config, Tensor(x[lo:hi]), bundle.config.condition_of(c),
                           mode="eval", update_stats=False)[1]

    with no_grad():
        vals = _row_blocks(len(samples), block_nll)
    return float(np.concatenate(vals).mean())


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate_one(bundle, e_vec, rng, trace=False):
    """Two-stage generation for one info vector: ``generate_batch`` at B=1.

    Returns (ZoneMap, ConfigTensor, config-stage trace or None).
    """
    zone_maps, configs, traces = generate_batch(bundle, np.reshape(e_vec, (1, -1)),
                                                rng, trace=trace)
    return zone_maps[0], configs[0], traces[0] if trace else None


def generate_batch(bundle, es, rng, trace=False):
    """Vectorized two-stage generation.

    Both latents are drawn for the whole batch first (zone, then config);
    each row block then runs zone inverse -> quantize -> fusion -> config
    inverse (see ``_row_blocks``).

    Returns (ZoneMaps, ConfigTensors, traces): with ``trace`` set, one
    config-stage trace per sample, a list of ``TraceStep`` (the latent draw,
    then the state after each inverted layer, in data coordinates);
    otherwise None.
    """
    rc = bundle.cfg
    es = np.asarray(es, dtype=np.float64)
    z_zone = rng.standard_normal((len(es), bundle.zone.d))
    z = rng.standard_normal((len(es), bundle.config.d))

    def sample_block(lo, hi):
        xz, _ = zone_sample_batch(bundle.zone, es[lo:hi], None, z=z_zone[lo:hi])
        hard = np.stack([quantize_zone(v, rc.m, rc.n).labels for v in xz])
        c = bundle.fusion.embed(hard, es[lo:hi])
        states = []
        collect = (lambda i, kind, s: states.append((i, kind, s))) if trace else None
        xc, _ = config_sample_batch(bundle.config, c.data, None, collect=collect,
                                    z=z[lo:hi])
        return hard, xc, states

    with no_grad():
        hards, xcs, block_states = zip(*_row_blocks(len(es), sample_block))
    zone_maps = [ZoneMap(h) for h in np.concatenate(hards)]
    configs = [quantize_config(v, rc.n, rc.p) for v in np.concatenate(xcs)]
    if not trace:
        return zone_maps, configs, None
    states = [(i, kind, np.concatenate([blk[k][2] for blk in block_states]))
              for k, (i, kind, _) in enumerate(block_states[0])]
    traces = [
        [TraceStep(-1, "latent", z[b], category_histogram_of(z[b], rc.n, rc.p))]
        + [TraceStep(i, kind, s[b], category_histogram_of(s[b], rc.n, rc.p))
           for i, kind, s in states]
        for b in range(len(es))
    ]
    return zone_maps, configs, traces


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_pools(originals_by_level, generated_by_level):
    """Per-level KL/HD/WD plus count-weighted averages.

    KL is taken from the pooled original distribution to the generated one.
    Levels present in the originals but with no generated pool (or vice
    versa) are excluded and reported in the warnings list.
    """
    levels = sorted(set(originals_by_level) & set(generated_by_level))
    warnings = []
    for lvl in sorted(set(originals_by_level) ^ set(generated_by_level)):
        warnings.append(f"level {lvl} has no counterpart pool; excluded")
    rows = []
    pairs = []
    for lvl in levels:
        orig = to_distribution(originals_by_level[lvl])
        gen = to_distribution(generated_by_level[lvl])
        weight = len(originals_by_level[lvl])
        rows.append({
            "level": lvl,
            "count": weight,
            "kl": kl_div(orig, gen),
            "hd": hellinger(orig, gen),
            "wd": wasserstein_1d(orig, gen),
        })
        pairs.append((orig, gen, weight))
    if not rows:
        raise DataError("no level has both original and generated samples")
    avg = {
        "KL": avg_weighted(kl_div, pairs),
        "HD": avg_weighted(hellinger, pairs),
        "WD": avg_weighted(wasserstein_1d, pairs),
    }
    return {"levels": rows, "avg": avg, "warnings": warnings}


def evaluate_model(bundle, samples, seed=0):
    """Generate one configuration per dataset sample (matched info vector)
    and compare the per-level pooled category distributions."""
    es, _, _, levels = dataset_arrays(samples)
    rng = np.random.default_rng(seed)
    _, generated, _ = generate_batch(bundle, es, rng)
    orig_pools = {}
    gen_pools = {}
    for s, g, lvl in zip(samples, generated, levels):
        orig_pools.setdefault(int(lvl), []).append(s.config)
        gen_pools.setdefault(int(lvl), []).append(g)
    return evaluate_pools(orig_pools, gen_pools)


def format_report(report, config_dict=None):
    lines = ["# urbanflows evaluation report"]
    if config_dict is not None:
        lines.append("# config " + json.dumps(config_dict, sort_keys=True))
    for warning in report["warnings"]:
        lines.append(f"# warning: {warning}")
    for row in report["levels"]:
        lines.append(
            "level {level} count {count} KL {kl:.12f} HD {hd:.12f} WD {wd:.12f}"
            .format(**row)
        )
    for key in ("KL", "HD", "WD"):
        lines.append(f"AVG_{key} {report['avg'][key]:.12f}")
    return "\n".join(lines) + "\n"


def check_dataset_dims(meta, rc):
    if (meta["N"], meta["M"], meta["P"]) != (rc.n, rc.m, rc.p):
        raise ConfigurationError(
            "dataset dims (N={N}, M={M}, P={P}) do not match config "
            "(n={n}, m={m}, p={p})".format(**meta, n=rc.n, m=rc.m, p=rc.p)
        )