"""Stage 1 in isolation: learn a conditional density over zone maps.

Trains a small zone-level flow on synthetic 4x4 maps, watches the NLL fall,
then checks that the learned density prefers real (spatially contiguous)
maps over cell-scrambled ones.
"""

import numpy as np

from urbanflows.numerics import Adam, Tensor, no_grad
from urbanflows.pipeline import ModelBundle, dataset_arrays, eval_zone_nll
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import build_info_vector, make_dataset
from urbanflows.zone_flow import dequantize_zone_batch, nll_tensors, quantize_zone_batch

rc = RunConfig(n=4, m=2, p=2, k_zone=2, k_config=1, zone_hidden=(16,),
               config_hidden=(8,), heads=1, stem_channels=2, n_cx=2,
               batch_size=16, seed=0)
bundle = ModelBundle(rc)
samples = make_dataset(120, rc.n, rc.m, rc.p, seed=1)
es, zones, _, _ = dataset_arrays(samples)

print("identity-initialization NLL:", round(eval_zone_nll(bundle, samples), 3))

opt = Adam(bundle.named_trainable(("zone.",)), lr=3e-3)
rng = np.random.default_rng(0)
for step in range(301):
    idx = rng.integers(0, len(samples), size=rc.batch_size)
    x = dequantize_zone_batch(zones[idx], rc.m, rng)
    opt.zero_grad()
    mean, _ = nll_tensors(bundle.zone, Tensor(x), Tensor(es[idx]))
    mean.backward()
    opt.step()
    if step % 60 == 0:
        print(f"step {step:4d}  batch NLL {float(mean.item()):8.3f}")

print("trained NLL:", round(eval_zone_nll(bundle, samples), 3))

# the generator grows zones as contiguous regions; scrambling the cells
# destroys that structure, and the trained density notices
held_out = make_dataset(60, rc.n, rc.m, rc.p, seed=99)
es_h, zones_h, _, _ = dataset_arrays(held_out)
g = np.random.default_rng(7)
x_real = dequantize_zone_batch(zones_h, rc.m, g)
scrambled = zones_h.reshape(len(zones_h), -1)
scrambled = np.stack([g.permutation(row) for row in scrambled])
x_fake = dequantize_zone_batch(scrambled.reshape(zones_h.shape), rc.m, g)
with no_grad():
    _, nll_real = nll_tensors(bundle.zone, Tensor(x_real), Tensor(es_h),
                              mode="eval", update_stats=False)
    _, nll_fake = nll_tensors(bundle.zone, Tensor(x_fake), Tensor(es_h),
                              mode="eval", update_stats=False)
print(f"held-out NLL: real maps {nll_real.mean():.2f}, "
      f"scrambled maps {nll_fake.mean():.2f}")

# sampling takes a batch of info vectors; one map is a batch of one
e = build_info_vector(samples[0].context, 2)
x, _ = bundle.zone.sample(e, np.random.default_rng(3))
print("one sampled map:")
print(quantize_zone_batch(x, rc.m, rc.n)[0])
