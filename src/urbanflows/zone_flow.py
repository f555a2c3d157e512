"""Stage 1: the zone-level flow p(U | e).

Zone maps are N x N integer grids quantized from a continuous flow over
d = N^2 dimensions.  The stack is a ``FlowStack`` of K blocks of coupling ->
condition projection -> batch-norm with a half-swap permutation between
consecutive blocks, so both index halves get transformed as depth grows.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError
from .flow_layers import (
    BatchNormFlow,
    ConditionProjectionLayer,
    CouplingLayer,
    FlowStack,
    Permutation,
    gaussian_logp,
    half_swap_perm,
)
from .numerics import Tensor, no_grad


class ZoneMap:
    """N x N grid of functional-zone labels in [0, M-1]."""

    __slots__ = ("n", "labels")

    def __init__(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
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


def quantize_zone(vec, m, n):
    """Exact inverse of dequantization: clamp(floor((v + 0.5) M), 0, M-1)."""
    vec = np.asarray(vec, dtype=np.float64)
    labels = np.clip(np.floor((vec + 0.5) * m), 0, m - 1).astype(np.int64)
    return ZoneMap(labels.reshape(n, n))


def soft_labels(vec, m):
    """Differentiable label surrogate in [0, M-1] for the fine-tune path."""
    from .numerics import clip

    return clip((vec + 0.5) * m - 0.5, 0.0, float(m - 1))


class ZoneFlowModel(FlowStack):
    """K blocks of [coupling, condition projection, batch-norm] with a
    half-swap between blocks; ``forward``, ``inverse`` and the per-layer
    ``collect`` hook are the ``FlowStack``'s, conditioned on the info
    vectors e.

    The model works on any even d; the zone pipeline uses d = N^2.
    """

    def __init__(self, store, prefix, d, cond_dim, rng, k=6, widths=(64, 64),
                 use_condition_projection=True):
        if k < 1:
            raise ConfigurationError("need at least one block")
        if d % 2:
            raise ConfigurationError("zone flow needs even d")
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


def zone_sample_batch(model, e, rng, collect=None, z=None):
    """Draw a batch of continuous zone vectors by inverting the stack.

    e is (B, cond_dim); returns the (B, d) pre-quantization array.  The
    latent ``z`` is drawn from ``rng`` unless given, and is returned too so
    callers can trace or reuse it.
    """
    if z is None:
        z = rng.standard_normal((e.shape[0], model.d))
    with no_grad():
        x = model.inverse(Tensor(z), Tensor(np.asarray(e, dtype=np.float64)),
                          mode="eval", collect=collect)
    return x.data, z

