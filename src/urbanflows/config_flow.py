"""Stage 2: the configuration-level flow p(X | c).

Configurations are N x N x P count tensors flattened in C order (cell-major,
category-minor) to d = N^2 * P.  The stack is a ``FlowStack`` of K' blocks of
masked autoregressive -> unconditional autoregressive -> batch-norm with a
variable-order reversal between consecutive blocks.  The masked layers are
conditioned on the flattened attention matrix A computed from the fused
embedding c.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError, TrainingFault
from .flow_layers import (
    BatchNormFlow,
    FlowStack,
    MaskedARLayer,
    Permutation,
    UncondARLayer,
    reversal_perm,
)
from .numerics import Tensor, as_tensor, no_grad
from .zone_flow import dequantize_zone_batch, nll_tensors, soft_labels

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


def dequantize_config_batch(counts, rng):
    """(B, N, N, P) counts -> (B, N^2 P) values ln(1 + count + u), with
    u ~ U[0, 1) per entry, flattened in C order."""
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
    return quantize_config(vec, n, p).category_histogram()


class ConfigFlowModel(FlowStack):
    """K' blocks of [masked AR, unconditional AR, batch-norm] with a
    reversal between blocks; ``forward``, ``inverse`` and the per-layer
    ``collect`` hook are the ``FlowStack``'s, conditioned on the flattened
    attention matrix from ``condition_of``.  Each AR layer is inverted by a
    fixed-point solve of at most d + 1 conditioner passes.

    ``attend`` is the attention submodel: a callable mapping the fused
    embedding batch (B, M, D) to the conditioning matrix batch, or None to
    condition on c directly.
    """

    def __init__(self, store, prefix, d, cond_dim, rng, k=4, widths=(64, 64),
                 use_uncond_ar=True, attend=None):
        if k < 1:
            raise ConfigurationError("need at least one block")
        if d < 2:
            raise ConfigurationError("config flow needs d >= 2")
        self.attend = attend
        blocks = [
            {
                "mar": MaskedARLayer(store, f"{prefix}.block{i}.mar", d, cond_dim,
                                     rng, widths, mask_seed=9001 + i),
                "uar": UncondARLayer(store, f"{prefix}.block{i}.uar", d, rng,
                                     widths, mask_seed=9001 + i + 500)
                if use_uncond_ar else None,
                "bn": BatchNormFlow(store, f"{prefix}.block{i}.bn", d),
            }
            for i in range(k)
        ]
        super().__init__(blocks, Permutation(reversal_perm(d)))

    def condition_of(self, cs):
        """(B, M, D) fused embeddings -> flattened conditioning (B, M*D)."""
        if not isinstance(cs, Tensor):
            cs = Tensor(np.asarray(cs, dtype=np.float64))
        b = cs.shape[0]
        a = self.attend(cs) if self.attend is not None else cs
        return a.reshape(b, -1)


def config_sample_batch(model, cs, rng, collect=None, z=None):
    """Sample (B, d) continuous config vectors given fused embeddings; the
    latent ``z`` is drawn from ``rng`` unless given."""
    if not isinstance(cs, Tensor):
        cs = Tensor(np.asarray(cs, dtype=np.float64))
    if z is None:
        z = rng.standard_normal((cs.shape[0], model.d))
    with no_grad():
        a_flat = model.condition_of(cs)
        x = model.inverse(Tensor(z), a_flat, mode="eval", collect=collect)
    return x.data, z


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
    zx = as_tensor(zone_x)
    if use_sampled_u:
        u_cont = zone_model.inverse(Tensor(z_fixed), es_t, mode="eval")
        hard = np.clip(np.floor((u_cont.data + 0.5) * m), 0, m - 1)
        hard = hard.astype(np.int64).reshape(b, n, n)
    else:
        if zone_labels is None:
            raise ConfigurationError("ground-truth conditioning needs zone labels")
        hard = np.asarray(zone_labels, dtype=np.int64).reshape(b, n, n)
        u_cont = zx
    images = (soft_labels(u_cont, m) * (1.0 / max(m - 1, 1))).reshape(b, 1, n, n)
    c = fusion_mod.embed(hard, es_t, images, mode=mode, rng=rng)
    a_flat = config_model.condition_of(c)

    cfg_x = as_tensor(config_x)
    cfg_mean, cfg_per = nll_tensors(config_model, cfg_x, a_flat, mode, update_stats)
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
            layer = (_first_nonfinite_layer(config_model, cfg_x, a_flat, mode)
                     if name == "config" else None)
            raise TrainingFault(f"non-finite {name} NLL at sample {bad}",
                                sample_index=bad, layer_index=layer)
    return total, parts


def _first_nonfinite_layer(model, x, a_flat, mode):
    """Flat index of the first stage-2 layer whose output is non-finite,
    found by replaying the forward with batch statistics left as they are
    (fault path only)."""
    bad = []

    def watch(flat_idx, kind, state):
        if not bad and not np.all(np.isfinite(state)):
            bad.append(flat_idx)

    with no_grad():
        model.forward(x, a_flat, mode, update_stats=False, collect=watch)
    return bad[0] if bad else None

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