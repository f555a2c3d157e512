"""Distribution-distance oracles.

The frozen constants below were computed by hand from the definitions:
Hellinger(p, q) = (1/sqrt 2) ||sqrt p - sqrt q||_2 and the discrete
1-D Wasserstein distance as the sum of absolute CDF differences.
"""

import numpy as np
import pytest

from urbanflows.errors import DataError
from urbanflows.metrics import (
    DEFAULT_SMOOTHING,
    hellinger,
    kl_div,
    to_distribution,
    wasserstein_1d,
)
from urbanflows.pipeline import evaluate_pools
from urbanflows.synthdata import make_dataset


def test_to_distribution_pools_counts():
    a = np.array([[[3, 1]]])
    b = np.array([[[1, 3]]])
    dist = to_distribution(np.stack([a, b]))
    assert dist.shape == (2,)
    assert np.allclose(dist, [0.5, 0.5], atol=1e-8)
    single = to_distribution(a)
    assert np.allclose(single, [0.75, 0.25], atol=1e-8)
    # every axis but the last is pooled, so the layout of the rows is free
    assert np.array_equal(to_distribution(np.stack([a, b]).reshape(2, 2)), dist)
    # integer counts sum exactly, so one sum over the stack equals pooling
    # sample by sample
    counts = make_dataset(40, 4, 2, 3, seed=5).counts
    totals = np.zeros(3)
    for c in counts:
        totals += c.reshape(-1, 3).sum(axis=0)
    totals += DEFAULT_SMOOTHING
    assert np.array_equal(to_distribution(counts), totals / totals.sum())
    # smoothing keeps empty categories strictly positive
    c = np.array([[[4, 0]]])
    d = to_distribution(c)
    assert d[1] > 0
    assert abs(d[1] - DEFAULT_SMOOTHING / (4 + 2 * DEFAULT_SMOOTHING)) < 1e-18


def test_to_distribution_rejects_empty_and_allzero():
    with pytest.raises(DataError):
        to_distribution(np.zeros((0, 1, 1, 2), dtype=int))
    zero = np.zeros((1, 1, 1, 2), dtype=int)
    with pytest.raises(DataError):
        to_distribution(zero, smoothing=0.0)


def test_to_distribution_rejects_negative_counts():
    with pytest.raises(DataError, match="nonnegative"):
        to_distribution(np.array([[[3, -1]]]))
    # even where the pooled total of that category would be positive
    with pytest.raises(DataError, match="nonnegative"):
        to_distribution(np.array([[[1, -1]], [[1, 2]]]))


def test_kl_reference_values():
    p = np.array([0.5, 0.5])
    assert kl_div(p, p) == 0.0
    # KL([1,0]||[0.5,0.5]) = ln 2 (the zero bin contributes nothing)
    assert abs(kl_div(np.array([1.0, 0.0]), p) - np.log(2.0)) < 1e-12
    with pytest.raises(DataError):
        kl_div(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_hellinger_reference_values():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    # frozen from the definition
    assert abs(hellinger(p, q) - 0.3249196962329063) < 1e-15
    assert hellinger(p, p) == 0.0
    disjoint = hellinger(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(disjoint - 1.0) < 1e-15
    assert abs(hellinger(p, q) - hellinger(q, p)) < 1e-15


def test_wasserstein_reference_values():
    # point masses two categories apart
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1.0])
    assert abs(wasserstein_1d(p, q) - 2.0) < 1e-15
    assert wasserstein_1d(p, p) == 0.0
    r = np.array([0.5, 0.5, 0.0])
    assert abs(wasserstein_1d(p, r) - 0.5) < 1e-15


def test_evaluate_pools_avg_is_the_count_weighted_mean_of_its_rows():
    """Each AVG line is the mean of the level rows' values weighted by their
    row counts; zero rows are refused."""
    one = np.array([[[[1, 1]]]])
    other = np.array([[[[9, 1]]]])
    same = np.array([[[[2, 5]]], [[[4, 1]]], [[[0, 3]]]])
    original = np.concatenate([one, same])
    generated = np.concatenate([other, same])
    report = evaluate_pools(original, generated, np.array([0, 1, 1, 1]))
    assert [row["count"] for row in report["levels"]] == [1, 3]
    gap = hellinger(to_distribution(one), to_distribution(other))
    want = (gap * 1.0 + 0.0 * 3.0) / 4.0
    assert abs(report["avg"]["HD"] - want) < 1e-15
    # weight renormalization is implicit in the weighted mean
    alone = evaluate_pools(one, other, np.array([2]))
    assert abs(alone["avg"]["HD"] - gap) < 1e-15

    data = make_dataset(40, 4, 2, 3, seed=6)
    shuffled = np.random.default_rng(1).permutation(data.counts)
    report = evaluate_pools(data.counts, shuffled, data.levels)
    weights = np.array([row["count"] for row in report["levels"]], dtype=np.float64)
    assert len(weights) > 1
    for key in ("kl", "hd", "wd"):
        values = np.array([row[key] for row in report["levels"]])
        assert report["avg"][key.upper()] == float(np.sum(weights * values) / weights.sum())

    empty = np.zeros((0, 4, 4, 3), dtype=np.int64)
    with pytest.raises(DataError):
        evaluate_pools(empty, empty, np.zeros(0, dtype=np.int64))
