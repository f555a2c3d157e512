"""Two-stage training, generation, and evaluation over a shared model bundle.

A ModelBundle owns one ParameterStore holding three namespaces: ``zone.*``
(stage-1 flow), ``fusion.*`` (extractor, semantic projection, attention) and
``config.*`` (stage-2 flow).  Checkpoints serialize the whole store, so a
stage-1 checkpoint already carries identity-initialized stage-2 parameters
and can be resumed directly by stage-2 training.

Both stages train through one loop, ``_train``; ``train_zone_stage`` and
``train_config_stage`` differ only in their loss, their namespaces and the
learning-rate scales.  A ``TrainingFault`` leaves the store at the last good
step in either stage.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading

import numpy as np

from .config_flow import (
    ConfigFlowModel,
    ConfigTensor,
    config_sample_batch,
    dequantize_config_batch,
    joint_loss,
    quantize_config_batch,
)
from .errors import ConfigurationError, DataError, TrainingFault
from .flow_layers import TraceStep
from .fusion import FusionModule
from .metrics import avg_weighted, hellinger, kl_div, to_distribution, wasserstein_1d
from .numerics import Adam, ParameterStore, Tensor, no_grad
from .synthdata import info_vectors
from .zone_flow import (
    ZoneFlowModel,
    ZoneMap,
    dequantize_zone_batch,
    nll_tensors,
    quantize_zone_batch,
)


class ModelBundle:
    """All three model parts over one parameter store.

    ``store`` defaults to a fresh store, whose parameters are drawn from
    ``rc.seed``.  A store opened on a checkpoint payload
    (``ParameterStore.opened``) lends the parts its values instead, so
    nothing is drawn; a payload that does not fit the parts raises a
    ``CheckpointError``.
    """

    def __init__(self, run_config, store=None):
        rc = run_config.validate()
        self.cfg = rc
        self.store = ParameterStore() if store is None else store
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
        self.store.check_complete()

    def named_trainable(self, prefixes):
        return [(n, t) for n, t in self.store.trainable_items() if n.startswith(tuple(prefixes))]


def dataset_arrays(samples):
    """Stack a dataset into (es, zone_labels, config_counts, levels).

    ``es`` is the ``info_vectors`` of the samples' contexts and levels.
    """
    if not samples:
        raise DataError("empty dataset")
    levels = np.array([s.green_level for s in samples], dtype=np.int64)
    es = info_vectors(np.stack([s.context.node_features for s in samples]), levels)
    zones = np.stack([s.zones.labels for s in samples])
    counts = np.stack([s.config.counts for s in samples])
    return es, zones, counts, levels


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _train(bundle, samples, rng, steps, namespaces, loss_of, log, lr_scales=None):
    """The training loop of both stages, over the parameters of ``namespaces``.

    Each step draws a batch, takes (loss tensor, float parts with "total")
    from ``loss_of(step, es, zones, counts)``, backpropagates into Adam's
    gradient buffer and runs one Adam step; ``log`` gets (step, total,
    parts).  No parameter stays bound to that buffer after a step, or after
    a step that raised.  Returns the (step, total)
    history.  On a ``TrainingFault`` (a non-finite NLL from ``loss_of``, or
    Adam's non-finite update, which writes no parameter) the running
    statistics of ``namespaces`` are put back before it propagates, so the
    store, and any checkpoint the caller writes, holds the last good step.
    A step runs with numpy's overflow and invalid warnings off: every
    non-finite value it makes ends in that fault.
    """
    rc = bundle.cfg
    es, zones, counts, _ = dataset_arrays(samples)
    opt = Adam(bundle.named_trainable(namespaces), lr=rc.lr, lr_scales=lr_scales)
    history = []
    for step in range(steps):
        idx = rng.integers(0, len(samples), size=rc.batch_size)
        stats = bundle.store.snapshot(namespaces, trainable=False)
        opt.zero_grad()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, parts = loss_of(step, es[idx], zones[idx], counts[idx])
                loss.backward()
                opt.step()
        except TrainingFault:
            bundle.store.restore(stats)
            raise
        finally:
            opt.release()  # a loss that raised left the parameters bound
        history.append((step, parts["total"]))
        if log is not None:
            log(step, parts["total"], parts)
    return history


def train_zone_stage(bundle, samples, rng, steps=None, log=None):
    """Stage-1 maximum-likelihood training of ``zone.*``; see ``_train``.
    A fault restores only the ``zone.*`` running statistics."""
    rc = bundle.cfg

    def zone_loss(step, es, zones, counts):
        x, e = Tensor(dequantize_zone_batch(zones, rc.m, rng)), Tensor(es)
        mean, per = nll_tensors(bundle.zone, x, e, mode="train", update_stats=True)
        if not np.isfinite(per).all():
            raise TrainingFault(f"non-finite zone NLL at step {step}",
                                sample_index=int(np.flatnonzero(~np.isfinite(per))[0]),
                                layer_index=bundle.zone.first_nonfinite_layer(x, e, "train"))
        loss = float(mean.item())
        return mean, {"zone_nll": loss, "total": loss}

    return _train(bundle, samples, rng, rc.steps_zone if steps is None else steps,
                  ("zone.",), zone_loss, log)


def train_config_stage(bundle, samples, rng, steps=None, log=None):
    """Stage-2 joint fine-tuning of config flow and fusion, zone at reduced
    lr; see ``_train``.  A fault restores the running statistics of every
    namespace."""
    rc = bundle.cfg

    def joint_step_loss(step, es, zones, counts):
        z_fixed = rng.standard_normal((len(es), bundle.zone.d))
        zone_x = dequantize_zone_batch(zones, rc.m, rng)
        config_x = dequantize_config_batch(counts, rng)
        return joint_loss(bundle.zone, bundle.fusion, bundle.config, es, zone_x, config_x,
                          z_fixed, rc.lambda_zone, zone_labels=zones, mode="train",
                          update_stats=True, use_sampled_u=rc.use_sampled_u, rng=rng)

    scales = {n: rc.zone_lr_scale for n, _ in bundle.named_trainable(("zone.",))}
    return _train(bundle, samples, rng, rc.steps_config if steps is None else steps,
                  ("zone.", "fusion.", "config."), joint_step_loss, log, lr_scales=scales)


# ---------------------------------------------------------------------------
# Row-parallel inference
# ---------------------------------------------------------------------------

# most rows in a block: a forward pass (the dataset NLLs) makes fewer numpy
# calls per row in larger blocks, but the Jacobi sweeps of a sampling inverse
# cost more per row above about 128 rows
_PASS_ROWS = 256
_SAMPLE_ROWS = 128
# a call of more rows than this is cut in at least two blocks, so that a
# second worker has one of its own
_SPLIT_ROWS = 128
# worker count, or None for ``_worker_rule``; tests force it
_WORKERS = None


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


def _block_bounds(n, most):
    """``n`` rows cut into the fewest near-equal contiguous blocks of at most
    ``most`` rows, and into at least two once ``n`` is more than
    ``_SPLIT_ROWS``: ``k = max(ceil(n / most), min(2, ceil(n / _SPLIT_ROWS)))``
    blocks with bounds ``n * i // k``.  Block sizes differ by at most one
    row, and the cut depends on ``n`` and ``most`` only, so every output is
    the same for any number of workers."""
    k = max(-(-n // most), min(2, -(-n // _SPLIT_ROWS)))
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _row_blocks(n, most, fn):
    """``[fn(lo, hi) for each block]`` over the ``_block_bounds(n, most)``
    blocks of ``n`` rows, in block order, under ``no_grad``.

    Worker w runs blocks w, w + workers, ... in its own copy of the
    caller's context (numpy's error state lives there): worker 0 on the
    calling thread, each other one on a thread named ``urbanflows-rows-<w>``
    that this call starts and joins before it returns, so a single block
    starts no thread.  Every block runs; then the first failing block's
    exception is raised.  The tape's grad flag is global to the process, so
    it stays off for every worker until the last one is joined.
    """
    bounds = _block_bounds(n, most)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(len(bounds), _WORKERS or _worker_rule(cpus, os.environ)))
    results = [None] * len(bounds)
    errors = [None] * len(bounds)

    def run(w):
        for i in range(w, len(bounds), workers):
            try:
                results[i] = fn(*bounds[i])
            except BaseException as exc:  # raised below, in block order
                errors[i] = exc

    with no_grad():
        threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, w),
                                    name=f"urbanflows-rows-{w}") for w in range(1, workers)]
        try:
            for thread in threads:
                thread.start()
            contextvars.copy_context().run(run, 0)
        finally:  # no started worker outlives the call or its no_grad
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# ---------------------------------------------------------------------------
# Evaluation NLLs
# ---------------------------------------------------------------------------


def _eval_nll(flow, x, condition):
    """Mean eval-mode NLL of the rows of ``x`` under ``flow``, in row
    blocks; ``condition(lo, hi)`` is the condition tensor of rows lo:hi."""

    def block_nll(lo, hi):
        return nll_tensors(flow, Tensor(x[lo:hi]), condition(lo, hi), mode="eval",
                           update_stats=False)[1]

    return float(np.concatenate(_row_blocks(len(x), _PASS_ROWS, block_nll)).mean())


def eval_zone_nll(bundle, samples, seed=0):
    """Eval-mode dataset NLL with seeded dequantization noise."""
    es, zones, _, _ = dataset_arrays(samples)
    x = dequantize_zone_batch(zones, bundle.cfg.m, np.random.default_rng(seed))
    return _eval_nll(bundle.zone, x, lambda lo, hi: Tensor(es[lo:hi]))


def eval_config_nll(bundle, samples, seed=0):
    """Eval-mode stage-2 NLL conditioned on the ground-truth zone maps."""
    es, zones, counts, _ = dataset_arrays(samples)
    x = dequantize_config_batch(counts, np.random.default_rng(seed))
    return _eval_nll(bundle.config, x, lambda lo, hi: bundle.config.condition_of(
        bundle.fusion.embed(zones[lo:hi], es[lo:hi])))


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
        xz, _ = bundle.zone.sample(es[lo:hi], None, z=z_zone[lo:hi])
        hard = quantize_zone_batch(xz, rc.m, rc.n)
        c = bundle.fusion.embed(hard, es[lo:hi])
        states = []
        collect = (lambda i, kind, s: states.append((i, kind, s))) if trace else None
        xc, _ = config_sample_batch(bundle.config, c.data, None, collect=collect,
                                    z=z[lo:hi])
        return hard, xc, states

    blocks = _row_blocks(len(es), _SAMPLE_ROWS, sample_block)
    if not blocks:  # zero rows
        return [], [], [] if trace else None
    hards, xcs, block_states = zip(*blocks)
    zone_maps = [ZoneMap(h) for h in np.concatenate(hards)]
    configs = [ConfigTensor(c) for c in quantize_config_batch(np.concatenate(xcs), rc.n, rc.p)]
    if not trace:
        return zone_maps, configs, None
    states = [(-1, "latent", z)] + [
        (i, kind, np.concatenate([blk[k][2] for blk in block_states]))
        for k, (i, kind, _) in enumerate(block_states[0])]
    step_counts = [quantize_config_batch(s, rc.n, rc.p) for _, _, s in states]
    traces = [[TraceStep(i, kind, s[b], c[b]) for (i, kind, s), c in zip(states, step_counts)]
              for b in range(len(es))]
    return zone_maps, configs, traces


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_pools(original, generated, levels):
    """Per-level KL/HD/WD plus count-weighted averages.

    ``original`` and ``generated`` are row-aligned (B, N, N, P) count
    arrays and ``levels`` their (B,) guidance levels; each level present
    pools its rows of both.  KL is taken from the pooled original
    distribution to the generated one.
    """
    if not len(original) == len(generated) == len(levels):
        raise DataError("original, generated and levels need one row per sample")
    rows = []
    pairs = []
    for lvl in np.unique(levels):
        at_level = levels == lvl
        orig = to_distribution(original[at_level])
        gen = to_distribution(generated[at_level])
        weight = int(at_level.sum())
        rows.append({
            "level": int(lvl),
            "count": weight,
            "kl": kl_div(orig, gen),
            "hd": hellinger(orig, gen),
            "wd": wasserstein_1d(orig, gen),
        })
        pairs.append((orig, gen, weight))
    avg = {
        "KL": avg_weighted(kl_div, pairs),
        "HD": avg_weighted(hellinger, pairs),
        "WD": avg_weighted(wasserstein_1d, pairs),
    }
    return {"levels": rows, "avg": avg}


def evaluate_model(bundle, samples, seed=0):
    """Generate one configuration per dataset sample (matched info vector)
    and compare the per-level pooled category distributions."""
    es, _, counts, levels = dataset_arrays(samples)
    _, generated, _ = generate_batch(bundle, es, np.random.default_rng(seed))
    return evaluate_pools(counts, np.stack([g.counts for g in generated]), levels)


def format_report(report, config_dict):
    lines = ["# urbanflows evaluation report",
             "# config " + json.dumps(config_dict, sort_keys=True)]
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