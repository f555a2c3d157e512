"""Stage 2: the configuration-level flow p(X | c).

Configurations are N x N x P count tensors flattened in C order (cell-major,
category-minor) to d = N^2 * P.  The stack is K' blocks of masked
autoregressive -> unconditional autoregressive -> batch-norm with a
variable-order reversal between consecutive blocks.  The masked layers are
conditioned on the flattened attention matrix A computed from the fused
embedding c.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError, SamplingFault, TrainingFault
from .flow_layers import (
    BatchNormFlow,
    GenerationTrace,
    MaskedARLayer,
    TraceStep,
    UncondARLayer,
    gaussian_logp,
    reversal_perm,
)
from .fusion import FusedEmbedding
from .numerics import Tensor, no_grad, permute_columns
from .zone_flow import dequantize_zone_batch, nll_tensors, quantize_zone, soft_labels

# guards against overflow when quantizing unbounded latents from an
# untrained model; ordinary data lives far below this
_MAX_LOG_COUNT = 25.0


class ConfigTensor:
    """N x N x P nonnegative integer POI counts."""

    __slots__ = ("n", "p", "counts")

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 3 or counts.shape[0] != counts.shape[1]:
            raise DataError("config tensor must be (N, N, P)")
        if counts.min() < 0:
            raise DataError("POI counts must be nonnegative")
        self.n = counts.shape[0]
        self.p = counts.shape[2]
        self.counts = counts

    def __eq__(self, other):
        return isinstance(other, ConfigTensor) and np.array_equal(self.counts, other.counts)

    def category_histogram(self):
        return self.counts.sum(axis=(0, 1))


def dequantize_config(x, rng):
    """ln(1 + count + u) with u ~ U[0,1) per entry, flattened in C order."""
    counts = np.asarray(getattr(x, "counts", x), dtype=np.float64)
    u = rng.random(counts.shape)
    return np.log1p(counts + u).ravel()


def dequantize_config_batch(counts, rng):
    counts = np.asarray(counts, dtype=np.float64)
    u = rng.random(counts.shape)
    return np.log1p(counts + u).reshape(counts.shape[0], -1)


def quantize_config(vec, n, p):
    """max(0, floor(exp(v) - 1)); exactly undoes the dequantization noise."""
    vec = np.minimum(np.asarray(vec, dtype=np.float64), _MAX_LOG_COUNT)
    counts = np.maximum(0, np.floor(np.expm1(vec) + 1e-12)).astype(np.int64)
    return ConfigTensor(counts.reshape(n, n, p))


def category_histogram_of(vec, n, p):
    """Per-category totals of the quantized version of a state vector."""
    vec = np.minimum(np.asarray(vec, dtype=np.float64), _MAX_LOG_COUNT)
    counts = np.maximum(0, np.floor(np.expm1(vec) + 1e-12)).astype(np.int64)
    return counts.reshape(n * n, p).sum(axis=0)


class ConfigFlowModel:
    """K' blocks of [masked AR, unconditional AR, batch-norm].

    ``attend`` is the attention submodel: a callable mapping the fused
    embedding batch (B, M, D) to the conditioning matrix batch, or None to
    condition on c directly.
    """

    def __init__(self, store, prefix, d, cond_dim, rng, k=4, widths=(64, 64),
                 use_uncond_ar=True, n=None, p=None, attend=None):
        if k < 1:
            raise ConfigurationError("need at least one block")
        if d < 2:
            raise ConfigurationError("config flow needs d >= 2")
        self.d = d
        self.cond_dim = cond_dim
        self.k = k
        self.n = n
        self.p = p
        self.attend = attend
        self.blocks = []
        for i in range(k):
            mask_seed = 9001 + i
            block = {
                "mar": MaskedARLayer(store, f"{prefix}.block{i}.mar", d, cond_dim,
                                     rng, widths, mask_seed=mask_seed),
                "uar": UncondARLayer(store, f"{prefix}.block{i}.uar", d, rng,
                                     widths, mask_seed=mask_seed + 500)
                if use_uncond_ar else None,
                "bn": BatchNormFlow(store, f"{prefix}.block{i}.bn", d),
            }
            self.blocks.append(block)
        self.rev = reversal_perm(d)
        # flat forward layer list with the coordinate layout at each input
        self.layers = []
        layout = np.arange(d)
        for i, block in enumerate(self.blocks):
            if i > 0:
                layout = layout[self.rev]
            self.layers.append(("masked_ar", i, block["mar"], layout))
            if block["uar"] is not None:
                self.layers.append(("uncond_ar", i, block["uar"], layout))
            self.layers.append(("batchnorm", i, block["bn"], layout))
        self.final_layout = layout
        self.final_inv = np.argsort(layout)

    def layer_count(self):
        return len(self.layers)

    def condition_of(self, cs):
        """(B, M, D) fused embeddings -> flattened conditioning (B, M*D)."""
        if not isinstance(cs, Tensor):
            cs = Tensor(np.asarray(cs, dtype=np.float64))
        b = cs.shape[0]
        a = self.attend(cs) if self.attend is not None else cs
        return a.reshape(b, -1)

    def forward(self, x, a_flat, mode="train", update_stats=True):
        h = x
        logdet = Tensor(np.zeros(x.shape[0]))
        prev_block = 0
        for kind, block_idx, layer, _ in self.layers:
            if block_idx != prev_block:
                h = permute_columns(h, self.rev)
                prev_block = block_idx
            if kind == "masked_ar":
                h, ld = layer.forward(h, a_flat, mode)
            elif kind == "uncond_ar":
                h, ld = layer.forward(h, None, mode)
            else:
                h, ld = layer.forward(h, mode, update_stats)
            logdet = logdet + ld
        h = permute_columns(h, self.final_inv)
        return h, logdet

    def inverse(self, z, a_flat, mode="eval", collect=None):
        """Latent -> data; each AR layer is inverted by a fixed-point solve
        of at most d + 1 conditioner passes.  Not differentiable."""
        h = permute_columns(z, self.final_layout)
        for flat_idx in range(len(self.layers) - 1, -1, -1):
            kind, block_idx, layer, layout = self.layers[flat_idx]
            if kind == "masked_ar":
                h = layer.inverse(h, a_flat, mode)
            elif kind == "uncond_ar":
                h = layer.inverse(h, None, mode)
            else:
                h = layer.inverse(h, mode)
            if not np.all(np.isfinite(h.data)):
                raise SamplingFault(f"non-finite state after inverting layer {flat_idx}",
                                    layer_index=flat_idx)
            if collect is not None:
                collect(flat_idx, kind, h.data[:, np.argsort(layout)])
            if flat_idx > 0 and self.layers[flat_idx - 1][1] != block_idx:
                h = permute_columns(h, self.rev)  # reversal is an involution
        return h


def _scan_nonfinite_layer(model, x, a_flat, mode):
    """Locate the first layer whose output is non-finite (failure path only)."""
    h = x
    prev_block = 0
    with no_grad():
        for flat_idx, (kind, block_idx, layer, _) in enumerate(model.layers):
            if block_idx != prev_block:
                h = permute_columns(h, model.rev)
                prev_block = block_idx
            if kind == "masked_ar":
                h, _ = layer.forward(h, a_flat, mode)
            elif kind == "uncond_ar":
                h, _ = layer.forward(h, None, mode)
            else:
                h, _ = layer.forward(h, mode, update_stats=False)
            if not np.all(np.isfinite(h.data)):
                return flat_idx
    return None


def config_nll(model, batch, rng, mode="train", update_stats=True):
    """Mean NLL of (ConfigTensor, FusedEmbedding) pairs.

    The attention matrix is computed inside, from each sample's fused
    embedding, per the conditioning pipeline.
    """
    xs = np.stack([dequantize_config(ct, rng) for ct, _ in batch])
    cs = np.stack([np.asarray(c.c if isinstance(c, FusedEmbedding) else c,
                              dtype=np.float64) for _, c in batch])
    a_flat = model.condition_of(cs)
    mean, per_sample = nll_tensors_config(model, Tensor(xs), a_flat, mode, update_stats)
    if not np.all(np.isfinite(per_sample)):
        bad = int(np.flatnonzero(~np.isfinite(per_sample))[0])
        # rescan the whole batch so train-mode batch statistics match
        layer = _scan_nonfinite_layer(model, Tensor(xs), Tensor(a_flat.data), mode)
        raise TrainingFault(f"non-finite NLL at sample {bad}",
                            sample_index=bad, layer_index=layer)
    return float(mean.item())


def nll_tensors_config(model, x, a_flat, mode="train", update_stats=True):
    z, logdet = model.forward(x, a_flat, mode, update_stats)
    nll = gaussian_logp(z) * (-1.0) - logdet
    return nll.mean(), nll.data


def config_sample_batch(model, cs, rng, collect=None):
    """Sample (B, d) continuous config vectors given fused embeddings."""
    if not isinstance(cs, Tensor):
        cs = Tensor(np.asarray(cs, dtype=np.float64))
    b = cs.shape[0]
    z = rng.standard_normal((b, model.d))
    with no_grad():
        a_flat = model.condition_of(cs)
        x = model.inverse(Tensor(z), a_flat, mode="eval", collect=collect)
    return x.data, z


def config_sample(model, c, rng, trace=False):
    """Sample one ConfigTensor; optionally record the layer-by-layer trace."""
    if model.n is None or model.p is None:
        raise ConfigurationError("sampling needs a model built with (n, p)")
    c_arr = np.asarray(c.c if isinstance(c, FusedEmbedding) else c, dtype=np.float64)
    states = []
    collect = (lambda i, kind, s: states.append((i, kind, s[0].copy()))) if trace else None
    x, z = config_sample_batch(model, c_arr[None], rng, collect=collect)
    ct = quantize_config(x[0], model.n, model.p)
    if not trace:
        return ct, None
    steps = [TraceStep(-1, "latent", z[0],
                       category_histogram_of(z[0], model.n, model.p))]
    for idx, kind, state in states:
        steps.append(TraceStep(idx, kind, state,
                               category_histogram_of(state, model.n, model.p)))
    return ct, GenerationTrace(steps)


# ---------------------------------------------------------------------------
# Joint fine-tuning
# ---------------------------------------------------------------------------


def joint_loss(zone_model, fusion_mod, config_model, es, zone_x, config_x,
               z_fixed, lam, zone_labels=None, mode="train",
               update_stats=False, use_sampled_u=True, rng=None):
    """Differentiable joint objective for one batch.

    es: (B, D) urban info vectors; zone_x / config_x: dequantized continuous
    targets; z_fixed: (B, d_zone) latents for the sampled-U pathway.  The
    zone inverse runs in eval mode (frozen batch-norm) so it stays exactly
    invertible and differentiable; fusing uses hard labels for the partition
    masks and the rescaled continuous vector for the extractor, which is the
    gradient path into the zone parameters.

    Returns (total loss tensor, dict of float parts).
    """
    es_t = es if isinstance(es, Tensor) else Tensor(np.asarray(es, dtype=np.float64))
    m = fusion_mod.m
    n = fusion_mod.n
    b = es_t.shape[0]
    if use_sampled_u:
        u_cont = zone_model.inverse(Tensor(z_fixed), es_t, mode="eval")
        hard = np.clip(np.floor((u_cont.data + 0.5) * m), 0, m - 1)
        hard = hard.astype(np.int64).reshape(b, n, n)
        soft = soft_labels(u_cont, m) * (1.0 / max(m - 1, 1))
    else:
        if zone_labels is None:
            raise ConfigurationError("ground-truth conditioning needs zone labels")
        hard = np.asarray(zone_labels, dtype=np.int64).reshape(b, n, n)
        zx = zone_x if isinstance(zone_x, Tensor) else Tensor(zone_x)
        soft = soft_labels(zx, m) * (1.0 / max(m - 1, 1))
    soft_img = soft.reshape(b, 1, n, n)
    a_flat, _ = fusion_mod.condition(hard, soft_img, es_t, mode=mode, rng=rng)

    cfg_x = config_x if isinstance(config_x, Tensor) else Tensor(config_x)
    cfg_mean, cfg_per = nll_tensors_config(config_model, cfg_x, a_flat,
                                           mode, update_stats)
    zx = zone_x if isinstance(zone_x, Tensor) else Tensor(zone_x)
    zone_mean, zone_per = nll_tensors(zone_model, zx, es_t, mode, update_stats)
    total = cfg_mean + lam * zone_mean
    parts = {
        "config_nll": float(cfg_mean.item()),
        "zone_nll": float(zone_mean.item()),
        "total": float(cfg_mean.item()) + lam * float(zone_mean.item()),
    }
    for name, per in (("config", cfg_per), ("zone", zone_per)):
        if not np.all(np.isfinite(per)):
            bad = int(np.flatnonzero(~np.isfinite(per))[0])
            raise TrainingFault(f"non-finite {name} NLL at sample {bad}",
                                sample_index=bad)
    return total, parts


def joint_finetune_step(zone_model, fusion_mod, config_model, batch, lam,
                        rng, optimizer, use_sampled_u=True):
    """One optimizer step of stage-2 training.

    batch: (es, zone_labels, config_counts) arrays.  Draws the latent and
    both dequantization noises from ``rng``; returns the loss parts dict.
    """
    es, zone_labels, config_counts = batch
    b = es.shape[0]
    z_fixed = rng.standard_normal((b, zone_model.d))
    zone_x = dequantize_zone_batch(zone_labels, fusion_mod.m, rng)
    config_x = dequantize_config_batch(config_counts, rng)
    optimizer.zero_grad()
    total, parts = joint_loss(zone_model, fusion_mod, config_model, es,
                              zone_x, config_x, z_fixed, lam,
                              zone_labels=zone_labels, mode="train",
                              update_stats=True, use_sampled_u=use_sampled_u,
                              rng=rng)
    total.backward()
    optimizer.step()
    return parts