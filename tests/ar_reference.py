"""Reference implementation the fixed-point AR inverse is tested against.

``sequential_inverse`` is the textbook recursion for a masked autoregressive
layer: pass i solves coordinate i from the already solved coordinates
0..i-1, so it costs exactly d passes of the conditioner's ``bind``.  Its
signature matches ``MaskedARLayer.inverse``, so a test can monkeypatch it
onto the class and run a whole stack through the reference.
"""

import numpy as np

from urbanflows.numerics import Tensor


def sequential_inverse(layer, y, cond=None, mode="eval"):
    y_data = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if cond is not None:
        cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=np.float64)
    conditioner_pass = layer.net.bind(cond)
    x = np.zeros_like(y_data)
    for i in range(layer.d):
        s, b = conditioner_pass(x)
        x[:, i] = (y_data[:, i] - b[:, i]) * np.exp(-s[:, i])
    return Tensor(x)
