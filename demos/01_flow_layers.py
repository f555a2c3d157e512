"""Tour of the invertible layer zoo.

Builds one of each layer type, pushes a batch through forward and inverse,
and checks the analytic log-determinant against a numerical Jacobian.  This
is the machinery everything else in the package is assembled from.
"""

import numpy as np

from urbanflows.flow_layers import (
    BatchNormFlow,
    ConditionProjectionLayer,
    CouplingLayer,
    MaskedARLayer,
    Permutation,
    UncondARLayer,
    half_swap_perm,
)
from urbanflows.numerics import ParameterStore, Tensor, no_grad
from urbanflows.numerics.oracle import numerical_jacobian

d, cond_dim = 8, 5
rng = np.random.default_rng(42)
store = ParameterStore()

layers = {
    "coupling": CouplingLayer(store, "cpl", d, cond_dim, rng, widths=(16,)),
    "condition projection": ConditionProjectionLayer(store, "cp", d, cond_dim,
                                                     rng, widths=(16,)),
    "masked AR": MaskedARLayer(store, "mar", d, cond_dim, rng, widths=(16,),
                               mask_seed=1),
    "unconditional AR": UncondARLayer(store, "uar", d, rng, widths=(16,),
                                      mask_seed=2),
    "batch-norm": BatchNormFlow(store, "bn", d),
    "half-swap": Permutation(half_swap_perm(d)),
}

# fresh conditioners are zero-initialized, so nudge everything off identity
for name, t in store.items():
    if "running" not in name:
        t.data += rng.normal(0.0, 0.2, size=t.shape)

# batch-norm needs running statistics before eval mode means anything
layers["batch-norm"].forward(Tensor(rng.normal(0.5, 1.4, size=(64, d))),
                             mode="train")

x = rng.normal(size=(32, d))
e = Tensor(rng.normal(size=(32, cond_dim)))

print(f"{'layer':>22}  {'round trip':>12}  {'logdet gap':>12}")
for name, layer in layers.items():
    uses_cond = name in ("coupling", "condition projection", "masked AR")
    with no_grad():
        if name == "batch-norm":
            y, ld = layer.forward(Tensor(x), mode="eval", update_stats=False)
            back = layer.inverse(y, mode="eval")
        else:
            cond = e if uses_cond else None
            y, ld = layer.forward(Tensor(x), cond, mode="eval")
            back = layer.inverse(y, cond, mode="eval")
    rt = np.abs(back.data - x).max()

    # numerical Jacobian of the first sample's map
    def f(v):
        with no_grad():
            if name == "batch-norm":
                out, _ = layer.forward(Tensor(v[None]), mode="eval",
                                       update_stats=False)
            else:
                c1 = Tensor(e.data[:1]) if uses_cond else None
                out, _ = layer.forward(Tensor(v[None]), c1, mode="eval")
        return out.data[0]

    J = numerical_jacobian(f, x[0])
    numeric = np.linalg.slogdet(J)[1]
    analytic = 0.0 if ld is None else float(ld.data[0])
    print(f"{name:>22}  {rt:12.2e}  {abs(analytic - numeric):12.2e}")

# the autoregressive property, made visible: output 3 of the masked
# conditioner ignores inputs 3..d-1 entirely
mar = layers["masked AR"]
probe = x[0].copy()
conditioner_pass = mar.net.bind(e.data[:1])
s_ref, _ = conditioner_pass(probe[None])
probe[5] += 100.0
s_poke, _ = conditioner_pass(probe[None])
print("\nmasked AR: shifting input 5 by +100 changes s_0..s_5 by",
      np.abs(s_poke[0, :6] - s_ref[0, :6]).max(),
      "and s_6.. by", np.abs(s_poke[0, 6:] - s_ref[0, 6:]).max())
