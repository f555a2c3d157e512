"""The conditioning path of stage 2, one piece at a time.

A sampled zone map is split into per-zone masks, embedded by the ConvNeXt
extractor, fused with the urban information vector, and mixed across zones
by attention.  The flattened result is what the configuration flow sees.
"""

import numpy as np

from urbanflows.fusion import FusionModule, partition_zones_batch
from urbanflows.numerics import ParameterStore, Tensor
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import build_info_vector, generate_sample

N, M, P, LEVEL = 4, 3, 4, 2
D = RunConfig(n=N, m=M, p=P).info_dim

sample = generate_sample(seed=5, n=N, m=M, p=P, green_level=LEVEL)
print("zone map:")
print(sample.zones.labels)

# step 1: M disjoint binary masks, one per zone label (a batch of one map)
labels = sample.zones.labels[None]
masks = partition_zones_batch(labels, M)
print("cells per zone:", masks[0].sum(axis=(1, 2)).astype(int),
      "| masks cover the grid:", bool((masks[0].sum(axis=0) == 1).all()))

# the conditioning width equals the info vector width, which is usually not
# divisible by anything useful, hence single-head attention
store = ParameterStore()
fusion = FusionModule(store, "fusion", N, M, D, heads=1,
                      rng=np.random.default_rng(42), stem_channels=4, n_cx=2)
print(f"fusion parameters: {len(store.names())} tensors, D = {D}")

# step 2: the extractor turns the map image into a geographic embedding o
img = Tensor(labels[:, None].astype(np.float64) / (M - 1))
o = fusion.extract(img)
print("geo embedding |o| =", round(float(np.linalg.norm(o.data)), 3))

# step 3: semantic projection, c_k = softmax(mask stats)_k * (ws e + wg o)
e = build_info_vector(sample.context, LEVEL)
c, zone_weights = fusion.fuse(masks, Tensor(e), o)
print("zone weights:", np.round(zone_weights.data[0], 3),
      "(sum", round(float(zone_weights.data.sum()), 6), ")")
ratio = c.data[0, 0] / c.data[0, 1]
print("row 0 / row 1 is constant:", np.allclose(ratio, ratio[0]),
      "= weight ratio:", np.isclose(ratio[0], zone_weights.data[0, 0]
                                    / zone_weights.data[0, 1]))

# step 4: attention lets each zone row see the others; editing one input
# row now moves every output row
a = fusion.attend(c)
c_edit = c.data.copy()
c_edit[0, 2] += 1.0
a_edit = fusion.attend(Tensor(c_edit))
moved = np.abs(a_edit.data - a.data).max(axis=2)[0]
print("max |change| per output row after editing input row 2:",
      np.round(moved, 4))

# steps 1-3 in one call; the configuration flow then attends and flattens
c_all = fusion.embed(labels, e)
print("embed() repeats steps 1-3:", bool((c_all.data == c.data).all()))
a_flat = fusion.attend(c_all).reshape(1, M * D)
print("conditioning matrix, flattened:", a_flat.shape, "= (1, M*D)")

# ablations used by the reduced variants
blind = FusionModule(ParameterStore(), "fusion", N, M, D, heads=1,
                     rng=np.random.default_rng(42), stem_channels=4, n_cx=2,
                     use_geo=False, use_attention=False)
print("use_geo=False extractor output:", float(np.abs(blind.extract(img).data).max()))
c2 = blind.embed(labels, e)
print("use_attention=False passes c through:",
      bool((blind.attend(c2).data == c2.data).all()))
