"""Distribution distances over POI-category histograms.

A stack of configurations' counts becomes one categorical distribution, a
plain (P,) probability array, by pooling counts over samples and cells,
smoothing every category by eps, and normalizing.  The three distances
follow the standard definitions; ``pipeline.evaluate_pools`` averages them
over guidance levels.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

DEFAULT_SMOOTHING = 1e-9


def to_distribution(counts, smoothing=DEFAULT_SMOOTHING):
    """Pool a (..., P) count array over every axis but the last, smooth
    every category by ``smoothing`` and normalize: a (P,) probability
    array."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 0 or counts.size == 0:
        raise DataError("need at least one count to build a distribution")
    if counts.min() < 0:
        raise DataError("counts must be nonnegative")
    totals = counts.reshape(-1, counts.shape[-1]).sum(axis=0) + smoothing
    denom = totals.sum()
    if denom <= 0:
        raise DataError("all counts zero and no smoothing; distribution undefined")
    return totals / denom


def kl_div(p, q):
    """sum p_i ln(p_i / q_i), with 0 ln 0 = 0."""
    pa, qa = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    mask = pa > 0
    if np.any(qa[mask] == 0):
        raise DataError("KL undefined: q has a zero where p is positive")
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


def hellinger(p, q):
    """(1/sqrt(2)) * ||sqrt(p) - sqrt(q)||_2, bounded in [0, 1]."""
    pa, qa = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return float(np.linalg.norm(np.sqrt(pa) - np.sqrt(qa)) / np.sqrt(2.0))


def wasserstein_1d(p, q):
    """Discrete earth mover over index-ordered categories: sum |CDF diffs|."""
    pa, qa = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return float(np.abs(np.cumsum(pa) - np.cumsum(qa)).sum())
