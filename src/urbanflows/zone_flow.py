"""Stage 1: the zone-level flow p(U | e).

Zone maps are N x N integer grids quantized from a continuous flow over
d = N^2 dimensions.  The stack is a ``FlowStack`` of K blocks of coupling ->
condition projection -> batch-norm with a half-swap permutation between
consecutive blocks, so both index halves get transformed as depth grows.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .flow_layers import (
    BatchNormFlow,
    ConditionProjectionLayer,
    CouplingLayer,
    FlowStack,
    Permutation,
    gaussian_logp,
    half_swap_perm,
)


class ZoneMap:
    """N x N grid of functional-zone labels in [0, M-1]."""

    __slots__ = ("n", "labels")

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.dtype.kind not in "iu":
            raise DataError("zone labels must be integers")
        labels = labels.astype(np.int64, copy=False)
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1]:
            raise DataError("zone map must be a square 2-D grid")
        if labels.shape[0] < 2:
            raise DataError("zone map side must be >= 2")
        if labels.min() < 0:
            raise DataError("zone labels must be nonnegative")
        self.n = labels.shape[0]
        self.labels = labels

    def __eq__(self, other):
        return isinstance(other, ZoneMap) and np.array_equal(self.labels, other.labels)


def dequantize_zone_batch(labels, m, rng):
    """(B, N, N) labels -> (B, N^2) continuous values (label + u)/M - 0.5 in
    [-0.5, 0.5), with u ~ U[0, 1) per cell."""
    labels = np.asarray(labels, dtype=np.float64)
    u = rng.random(labels.shape)
    return ((labels + u) / m - 0.5).reshape(labels.shape[0], -1)


def quantize_zone_batch(vecs, m, n):
    """(B, N^2) continuous values -> (B, N, N) labels clamp(floor((v + 0.5)
    M), 0, M-1): the exact inverse of dequantization."""
    vecs = np.asarray(vecs, dtype=np.float64)
    labels = np.clip(np.floor((vecs + 0.5) * m), 0, m - 1).astype(np.int64)
    return labels.reshape(-1, n, n)


def soft_labels(vec, m):
    """Differentiable label surrogate in [0, M-1] for the fine-tune path."""
    from .numerics import clip

    return clip((vec + 0.5) * m - 0.5, 0.0, float(m - 1))


class ZoneFlowModel(FlowStack):
    """K blocks of [coupling, condition projection, batch-norm] with a
    half-swap between blocks; ``forward``, ``inverse``, ``sample`` and the
    per-layer ``collect`` hook are the ``FlowStack``'s, conditioned on the
    info vectors e.

    The model works on any even d; the zone pipeline uses d = N^2.
    """

    def __init__(self, store, prefix, d, cond_dim, rng, k=6, widths=(64, 64),
                 use_condition_projection=True):
        blocks = [
            {
                "coupling": CouplingLayer(store, f"{prefix}.block{i}.coupling",
                                          d, cond_dim, rng, widths),
                "proj": ConditionProjectionLayer(store, f"{prefix}.block{i}.proj",
                                                 d, cond_dim, rng, widths)
                if use_condition_projection else None,
                "bn": BatchNormFlow(store, f"{prefix}.block{i}.bn", d),
            }
            for i in range(k)
        ]
        super().__init__(blocks, Permutation(half_swap_perm(d)))


def nll_tensors(model, x, cond, mode="train", update_stats=True):
    """Mean NLL tensor plus the per-sample NLL values as an ndarray, for
    either stage: ``cond`` is the info vectors of a ``ZoneFlowModel`` or the
    flattened conditioning of a ``ConfigFlowModel``."""
    z, logdet = model.forward(x, cond, mode, update_stats)
    nll = gaussian_logp(z) * (-1.0) - logdet
    return nll.mean(), nll.data
