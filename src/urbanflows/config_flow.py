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

from .errors import ConfigurationError, DataError, SamplingFault, TrainingFault
from .flow_layers import (
    BatchNormFlow,
    FlowStack,
    MaskedARLayer,
    Permutation,
    UncondARLayer,
    reversal_perm,
)
from .numerics import Tensor, as_tensor, no_grad
from .zone_flow import nll_tensors, quantize_zone_batch, soft_labels

# guards against overflow when quantizing unbounded latents from an
# untrained model; ordinary data lives far below this
_MAX_LOG_COUNT = 25.0


class ConfigTensor:
    """N x N x P nonnegative integer POI counts."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = np.asarray(counts)
        if counts.dtype.kind not in "iu":
            raise DataError("POI counts must be integers")
        counts = counts.astype(np.int64, copy=False)
        if counts.ndim != 3 or counts.shape[0] != counts.shape[1]:
            raise DataError("config tensor must be (N, N, P)")
        if counts.min() < 0:
            raise DataError("POI counts must be nonnegative")
        self.counts = counts

    def __eq__(self, other):
        return isinstance(other, ConfigTensor) and np.array_equal(self.counts, other.counts)


def dequantize_config_batch(counts, rng):
    """(B, N, N, P) counts -> (B, N^2 P) values ln(1 + count + u), with
    u ~ U[0, 1) per entry, flattened in C order."""
    counts = np.asarray(counts, dtype=np.float64)
    u = rng.random(counts.shape)
    return np.log1p(counts + u).reshape(counts.shape[0], -1)


def quantize_config_batch(vecs, n, p):
    """(B, N^2 P) values -> (B, N, N, P) counts max(0, floor(exp(v) - 1));
    exactly undoes the dequantization noise."""
    vecs = np.minimum(np.asarray(vecs, dtype=np.float64), _MAX_LOG_COUNT)
    counts = np.maximum(0, np.floor(np.expm1(vecs) + 1e-12)).astype(np.int64)
    return counts.reshape(-1, n, n, p)


class ConfigFlowModel(FlowStack):
    """K' blocks of [masked AR, unconditional AR, batch-norm] with a
    reversal between blocks; ``forward``, ``inverse``, ``sample`` and the
    per-layer ``collect`` hook are the ``FlowStack``'s, conditioned on the
    flattened attention matrix from ``condition_of``.  Each AR layer is
    inverted by a fixed-point solve of at most d + 1 conditioner passes.

    ``attend`` is the attention submodel: a callable mapping the fused
    embedding batch (B, M, D) to the conditioning matrix batch, or None to
    condition on c directly.
    """

    def __init__(self, store, prefix, d, cond_dim, rng, k=4, widths=(64, 64),
                 use_uncond_ar=True, attend=None):
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
        cs = as_tensor(cs)
        b = cs.shape[0]
        a = self.attend(cs) if self.attend is not None else cs
        return a.reshape(b, -1)


def config_sample_batch(model, cs, rng, collect=None, z=None):
    """Sample (B, d) continuous config vectors given fused embeddings:
    ``model.sample`` on their ``condition_of``."""
    with no_grad():
        a_flat = model.condition_of(cs)
    return model.sample(a_flat, rng, collect, z)


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

    Returns (total loss tensor, dict of float parts).  A non-finite NLL of
    either stack raises ``TrainingFault`` naming its first bad sample and
    layer, and so does a non-finite sampled zone map, naming the zone layer
    whose inverse went non-finite.
    """
    es_t = as_tensor(es)
    m = fusion_mod.m
    n = fusion_mod.n
    b = es_t.shape[0]
    zx = as_tensor(zone_x)
    if use_sampled_u:
        try:
            u_cont = zone_model.inverse(Tensor(z_fixed), es_t)
        except SamplingFault as fault:  # a training step, so the caller rolls back
            raise TrainingFault(f"sampled zone map: {fault}",
                                layer_index=fault.layer_index) from fault
        hard = quantize_zone_batch(u_cont.data, m, n)
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
    for name, per, model, x, cond in (("config", cfg_per, config_model, cfg_x, a_flat),
                                      ("zone", zone_per, zone_model, zx, es_t)):
        if not np.all(np.isfinite(per)):
            bad = int(np.flatnonzero(~np.isfinite(per))[0])
            raise TrainingFault(f"non-finite {name} NLL at sample {bad}", sample_index=bad,
                                layer_index=model.first_nonfinite_layer(x, cond, mode))
    return total, parts
