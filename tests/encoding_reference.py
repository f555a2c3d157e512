"""Per-sample references for the batched encodings.

These are the one-sample formulas the package used before each encoding got
one batched implementation: the info vector of ``synthdata.info_vectors``,
the zone labels of ``zone_flow.quantize_zone_batch`` and the POI counts of
``config_flow.quantize_config_batch``.  The batched functions must give
their bits exactly.
"""

import numpy as np

from urbanflows.errors import DataError
from urbanflows.runconfig import GUIDANCE_LEVELS

# the overflow guard of the config quantizer
MAX_LOG_COUNT = 25.0


def embed_context(graph):
    """Order-invariant context embedding: [mean ‖ max] over the 8 nodes."""
    feats = graph.node_features
    return np.concatenate([feats.mean(axis=0), feats.max(axis=0)]).reshape(1, -1)


def encode_guidance(level):
    if not isinstance(level, (int, np.integer)) or not 0 <= level < GUIDANCE_LEVELS:
        raise DataError(f"guidance level must be an integer in [0, {GUIDANCE_LEVELS - 1}]")
    onehot = np.zeros((1, GUIDANCE_LEVELS))
    onehot[0, level] = 1.0
    return onehot


def build_info_vector(context, level):
    """The (1, D) Urban Information Vector e = [context embedding | guidance]."""
    return np.concatenate([embed_context(context), encode_guidance(level)], axis=1)


def info_dim(p):
    return 2 * (p + 2) + GUIDANCE_LEVELS


def quantize_zone(vec, m, n):
    """(N, N) labels clamp(floor((v + 0.5) M), 0, M-1) of one vector."""
    vec = np.asarray(vec, dtype=np.float64)
    labels = np.clip(np.floor((vec + 0.5) * m), 0, m - 1).astype(np.int64)
    return labels.reshape(n, n)


def quantize_config(vec, n, p):
    """(N, N, P) counts max(0, floor(exp(v) - 1)) of one vector."""
    vec = np.minimum(np.asarray(vec, dtype=np.float64), MAX_LOG_COUNT)
    counts = np.maximum(0, np.floor(np.expm1(vec) + 1e-12)).astype(np.int64)
    return counts.reshape(n, n, p)


def category_histogram_of(vec, n, p):
    """Per-category totals of the quantized version of a state vector."""
    return quantize_config(vec, n, p).sum(axis=(0, 1))
