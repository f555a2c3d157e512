"""Reference implementation the fixed-point AR inverse is tested against.

``sequential_inverse`` is the textbook recursion for a masked autoregressive
layer: pass i solves coordinate i from the already solved coordinates
0..i-1, so it costs exactly d conditioner passes.  Its signature matches
``MaskedARLayer.inverse``, so a test can monkeypatch it onto the class and
run a whole stack through the reference.
"""

import numpy as np

from urbanflows.numerics import Tensor, no_grad


def sequential_inverse(layer, y, cond=None, mode="eval"):
    y_data = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if cond is not None and not isinstance(cond, Tensor):
        cond = Tensor(cond)
    x = np.zeros_like(y_data)
    with no_grad():
        for i in range(layer.d):
            s, b = layer.net(Tensor(x), cond)
            x[:, i] = (y_data[:, i] - b.data[:, i]) * np.exp(-s.data[:, i])
    return Tensor(x)
