"""Reference optimizers that ``urbanflows.numerics.Adam`` is tested against.

``ReferenceAdam`` is the textbook form: the gradients, clipped by their global norm,
update the moments, and each parameter moves by
``lr * scale * m_hat / (sqrt(v_hat) + eps)`` with the bias-corrected
moments ``m_hat = m / (1 - b1^t)`` and ``v_hat = v / (1 - b2^t)``.  It
builds full-size temporaries for every term and writes each parameter as
it goes, with no finite check.  Its constructor and ``step`` match the
package's ``Adam``.  ``CopyingAdam`` is the package's arithmetic on
copied gradients, the path that bound gradients must match bit for bit.
"""

import numpy as np

from urbanflows.numerics import Adam


class CopyingAdam(Adam):
    """The package's ``Adam`` with gradients copied rather than bound:
    ``zero_grad`` binds nothing, so the tape gives every gradient a fresh
    array and ``step`` copies each into the flat buffer."""

    def zero_grad(self):
        for _, t in self.params:
            t.grad = None


class ReferenceAdam:
    def __init__(self, named_params, lr=1e-3, lr_scales=None):
        self.params = list(named_params)
        self.lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self.clip_norm = 10.0
        self.lr_scales = dict(lr_scales or {})
        self.t = 0
        self._m = {name: np.zeros(t.shape) for name, t in self.params}
        self._v = {name: np.zeros(t.shape) for name, t in self.params}

    def zero_grad(self):
        for _, t in self.params:
            t.grad = None

    def _clip_factor(self, grads):
        total = 0.0
        for g in grads.values():
            total += float(np.sum(g * g))
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            return self.clip_norm / norm
        return 1.0

    def step(self):
        grads = {}
        for name, t in self.params:
            grads[name] = t.grad if t.grad is not None else np.zeros(t.shape)
        factor = self._clip_factor(grads)
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, t in self.params:
            g = grads[name] * factor
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            scale = self.lr * self.lr_scales.get(name, 1.0)
            t.data -= scale * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
