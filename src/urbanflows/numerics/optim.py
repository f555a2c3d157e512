"""Adam with global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from ..errors import TrainingFault

BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
CLIP_NORM = 10.0


def _clip_factor(grads):
    """CLIP_NORM / |grads| when the global norm exceeds ``CLIP_NORM``,
    else 1.  A square that overflows is taken again on grads / max|g|;
    a non-finite gradient is not clipped, and its values fail the
    check of the step."""
    big = 1.0
    total = float(np.dot(grads, grads))
    if not math.isfinite(total):
        if not np.isfinite(grads).all():
            return 1.0
        big = max(float(grads.max()), -float(grads.min()))
        scaled = grads / big
        total = float(np.dot(scaled, scaled))
    norm = math.sqrt(total)  # of grads / big
    if norm * big > CLIP_NORM:
        return CLIP_NORM / big / norm
    return 1.0


class Adam:
    """Adam over (name, tensor) pairs with optional per-name lr scaling.

    Gradients are clipped jointly (Pascanu et al. 2013): if the global L2
    norm across every parameter exceeds ``CLIP_NORM``, all gradients are
    scaled down by the same factor before the moment updates.  The update
    is the efficient form Kingma & Ba give after their Algorithm 1,
    ``theta -= alpha_t * m / (sqrt(v) + eps_hat)`` with
    ``alpha_t = lr * scale * sqrt(1 - b2^t) / (1 - b1^t)`` and
    ``eps_hat = EPS * sqrt(1 - b2^t)``: the bias-corrected update
    ``m_hat / (sqrt(v_hat) + EPS)`` rearranged, so only rounding differs.

    The moments and one scratch buffer of new values are each one flat
    array over every parameter, allocated here; ``step`` makes one pass of
    each array operation over them.  It writes the parameters only once
    every new value is known to be finite.  Otherwise it raises
    ``TrainingFault("non-finite parameters after step N")``, N counting
    from 0 as the training loop does, and no parameter has changed.  The
    moments may have advanced, so an Adam whose step raised is spent.
    """

    def __init__(self, named_params, lr=1e-3, lr_scales=None):
        self.params = list(named_params)
        self.lr = lr
        self.lr_scales = dict(lr_scales or {})
        self.t = 0
        size = sum(t.size for _, t in self.params)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # each parameter's gradient, then its new value, as a view of one buffer
        self._new = np.empty(size)
        self._views = []
        start = 0
        for _, t in self.params:
            self._views.append(self._new[start:start + t.size].reshape(t.shape))
            start += t.size

    def zero_grad(self):
        for _, t in self.params:
            t.grad = None

    def step(self):
        new = self._new
        for (_, t), view in zip(self.params, self._views):
            if t.grad is None:
                view.fill(0.0)
            else:
                np.copyto(view, t.grad)
        self.t += 1
        b1, b2 = BETA1, BETA2
        root = math.sqrt(1.0 - b2 ** self.t)
        alpha = self.lr * root / (1.0 - b1 ** self.t)
        # an overflow, or a non-finite gradient, ends in values that the
        # finite check below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            new *= (1.0 - b1) * _clip_factor(new)  # (1 - b1) g
            self._m *= b1
            self._m += new
            new *= new
            new *= (1.0 - b2) / (1.0 - b1) ** 2  # (1 - b2) g^2
            self._v *= b2
            self._v += new
            np.sqrt(self._v, out=new)
            new += EPS * root
            np.divide(self._m, new, out=new)
            new *= -alpha
            for (name, t), view in zip(self.params, self._views):
                scale = self.lr_scales.get(name)
                if scale is not None:
                    view *= scale
                view += t.data
        if not np.isfinite(new).all():
            raise TrainingFault(f"non-finite parameters after step {self.t - 1}")
        for (_, t), view in zip(self.params, self._views):
            np.copyto(t.data, view)
