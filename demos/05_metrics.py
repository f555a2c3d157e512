"""What the evaluation report is made of.

The three distances over category distributions, checked against closed
forms, then the pooling that turns a stack of configurations' counts into one
probability array, and the count-weighted average over guidance levels that
``evaluate_pools`` takes of its per-level rows.
"""

import numpy as np

from urbanflows.metrics import hellinger, kl_div, to_distribution, wasserstein_1d
from urbanflows.pipeline import evaluate_pools
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
counts, levels = data.counts, data.levels  # (400, 8, 8, 5) and (400,)
d_a = to_distribution(counts[:200])
d_b = to_distribution(counts[200:])
uniform = np.full(5, 0.2)
print("\ncounts", counts.shape, "-> pooled mix, first half:", np.round(d_a, 3))
print("half vs half   KL", f"{kl_div(d_a, d_b):.6f}",
      "HD", f"{hellinger(d_a, d_b):.6f}")
print("half vs uniform KL", f"{kl_div(d_a, uniform):.6f}",
      "HD", f"{hellinger(d_a, uniform):.6f}")

# the report's AVG_* lines: per-level distances weighted by sample count.
# Each level's first half of rows is compared with its second half, as two
# row-aligned stacks: a row keeps its counts on its own side and is zero on
# the other, which adds nothing to either side's pooled counts
first = np.zeros(len(levels), dtype=bool)
for level in np.unique(levels):
    at_level = np.flatnonzero(levels == level)
    first[at_level[:len(at_level) // 2]] = True
zero = np.zeros_like(counts)
report = evaluate_pools(np.where(first[:, None, None, None], counts, zero),
                        np.where(first[:, None, None, None], zero, counts), levels)
for row in report["levels"]:
    print(f"level {row['level']}: count {row['count']:3d}  KL {row['kl']:.6f}")
for key in ("KL", "HD", "WD"):
    print(f"AVG_{key}", f"{report['avg'][key]:.6f}")
