"""What the evaluation report is made of.

The three distances over category distributions, checked against closed
forms, then the pooling that turns a stack of configurations' counts into one
probability array, and the count-weighted average that collapses the per-level
rows into a single number.
"""

import numpy as np

from urbanflows.metrics import (
    avg_weighted,
    hellinger,
    kl_div,
    to_distribution,
    wasserstein_1d,
)
from urbanflows.synthdata import make_dataset

p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
print("KL  :", round(kl_div(p, q), 6), " closed form 0.5 ln(4/3) =",
      round(0.5 * np.log(4 / 3), 6))
print("HD  :", round(hellinger(p, q), 6), " bounded in [0, 1]")
print("WD  :", round(wasserstein_1d(p, q), 6), " = |CDF gap| = 0.25")
print("self:", kl_div(p, p), hellinger(p, p), wasserstein_1d(p, p))

# pooling: two disjoint halves of one dataset should be near-identical,
# while a uniform reference is visibly far from the pooled real mix
data = make_dataset(400, n=8, m=4, p=5, seed=21)
counts = np.stack([s.config.counts for s in data])  # (400, 8, 8, 5)
levels = np.array([s.green_level for s in data])
d_a = to_distribution(counts[:200])
d_b = to_distribution(counts[200:])
uniform = np.full(5, 0.2)
print("\ncounts", counts.shape, "-> pooled mix, first half:", np.round(d_a, 3))
print("half vs half   KL", f"{kl_div(d_a, d_b):.6f}",
      "HD", f"{hellinger(d_a, d_b):.6f}")
print("half vs uniform KL", f"{kl_div(d_a, uniform):.6f}",
      "HD", f"{hellinger(d_a, uniform):.6f}")

# the report's AVG_* lines: per-level distances weighted by sample count
triples = []
for level in np.unique(levels):
    rows = counts[levels == level]
    half = len(rows) // 2
    pl = to_distribution(rows[:half])
    ql = to_distribution(rows[half:])
    triples.append((pl, ql, len(rows)))
    print(f"level {level}: count {len(rows):3d}  "
          f"KL {kl_div(pl, ql):.6f}")
print("AVG_KL", f"{avg_weighted(kl_div, triples):.6f}")
print("AVG_HD", f"{avg_weighted(hellinger, triples):.6f}")
print("AVG_WD", f"{avg_weighted(wasserstein_1d, triples):.6f}")
