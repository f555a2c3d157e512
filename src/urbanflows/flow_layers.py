"""Invertible layers: coupling, condition projection, batch-norm flow, and
the two masked autoregressive layer types, plus the MADE mask builder.

Conventions used throughout:

* "forward" is the data -> latent direction whose accumulated log-det enters
  the negative log-likelihood; "inverse" is the generation direction.
* Layers operate on batches: vectors are (B, d) tensors, log-dets are (B,)
  tensors.  The single-state wrappers at the bottom of the module
  stack/unstack one sample.
* Scale outputs are clamped to [-CLAMP, CLAMP] through a smooth tanh squash
  so exp(s) stays within [e^-5, e^5] no matter what the conditioner emits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError, ModeError
from .numerics import Tensor, concat, exp, gelu, log, no_grad, permute_columns, tanh

CLAMP = 5.0
LN_2PI = float(np.log(2.0 * np.pi))


def clamp_scale(s):
    """Smoothly squash raw scale outputs into [-CLAMP, CLAMP]."""
    return CLAMP * tanh(s * (1.0 / CLAMP))


def gaussian_logp(z):
    """Per-sample standard-normal log-density of a (B, d) tensor."""
    d = z.shape[-1]
    return (z * z).sum(axis=-1) * (-0.5) - 0.5 * d * LN_2PI


class FlowState:
    """One sample mid-stack: a flat vector plus its accumulated log-det."""

    __slots__ = ("vector", "accumulated_logdet")

    def __init__(self, vector, accumulated_logdet=0.0):
        self.vector = np.asarray(vector, dtype=np.float64)
        self.accumulated_logdet = float(accumulated_logdet)
        if not np.isfinite(self.accumulated_logdet):
            raise ConfigurationError("accumulated_logdet must be finite")


class TraceStep:
    """One recorded step of a generation trace.

    ``state`` is expressed in canonical data coordinates except for the very
    first step, which is the latent draw itself.  ``histogram`` is the
    per-category count histogram of the quantized state.
    """

    __slots__ = ("layer_index", "layer_type", "state", "histogram")

    def __init__(self, layer_index, layer_type, state, histogram):
        self.layer_index = int(layer_index)
        self.layer_type = str(layer_type)
        self.state = np.asarray(state, dtype=np.float64)
        self.histogram = np.asarray(histogram, dtype=np.int64)


class GenerationTrace:
    """Ordered steps from latent draw to final quantized output."""

    def __init__(self, steps):
        self.steps = list(steps)

    def __len__(self):
        return len(self.steps)

    def __getitem__(self, i):
        return self.steps[i]


# ---------------------------------------------------------------------------
# MADE masks
# ---------------------------------------------------------------------------


class MadeMaskSet:
    """Binary masks enforcing strict autoregression through an MLP.

    hidden_masks[l] has shape (fan_in, fan_out) and multiplies the l-th
    weight matrix elementwise; out_mask has shape (last_width, d) and is
    tiled across the (s, b) output panels.  Input coordinate j carries degree
    j (1-based); output i connects only to hidden units of degree < i, so
    output 1 sees nothing at all.
    """

    __slots__ = ("d", "hidden_masks", "out_mask", "hidden_degrees")

    def __init__(self, d, hidden_masks, out_mask, hidden_degrees):
        self.d = d
        self.hidden_masks = hidden_masks
        self.out_mask = out_mask
        self.hidden_degrees = hidden_degrees


def build_made_masks(d, hidden_widths, seed):
    """Construct masks for input dimension d and the given hidden widths.

    Hidden degrees are drawn uniformly from [1, d-1] using the seed, so the
    same (d, widths, seed) triple always yields identical masks.
    """
    if d < 2:
        raise ConfigurationError("autoregressive masks need d >= 2")
    if any(w < 1 for w in hidden_widths):
        raise ConfigurationError("hidden widths must be >= 1")
    rng = np.random.default_rng(seed)
    in_degrees = np.arange(1, d + 1)
    prev = in_degrees
    hidden_masks = []
    hidden_degrees = []
    for width in hidden_widths:
        deg = rng.integers(1, d, size=width)
        # unit h keeps input j iff deg(h) >= deg(j)
        hidden_masks.append((prev[:, None] <= deg[None, :]).astype(np.float64))
        hidden_degrees.append(deg)
        prev = deg
    # output i keeps hidden h iff i > deg(h): strictly lower inputs only
    out_mask = (prev[:, None] < in_degrees[None, :]).astype(np.float64)
    return MadeMaskSet(d, hidden_masks, out_mask, hidden_degrees)


# ---------------------------------------------------------------------------
# Conditioner networks
# ---------------------------------------------------------------------------


def _init_dense(store, name, fan_in, fan_out, rng, zero=False):
    if zero:
        w = np.zeros((fan_in, fan_out))
    else:
        w = rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), size=(fan_in, fan_out))
    weight = store.add(name + ".w", w)
    bias = store.add(name + ".b", np.zeros(fan_out))
    return weight, bias


class ConditionerNet:
    """Dense MLP mapping (input slice ‖ condition) -> (s, b).

    Two GELU hidden layers by default; the final layer is zero-initialized
    so any flow built from fresh conditioners starts as the identity.
    """

    def __init__(self, store, prefix, in_dim, out_dim, rng, widths=(64, 64)):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.layers = []
        fan = in_dim
        for i, width in enumerate(widths):
            self.layers.append(_init_dense(store, f"{prefix}.h{i}", fan, width, rng))
            fan = width
        self.final = _init_dense(store, f"{prefix}.out", fan, 2 * out_dim, rng, zero=True)

    def __call__(self, x):
        h = x
        for w, b in self.layers:
            h = gelu(h @ w + b)
        w, b = self.final
        out = h @ w + b
        s = clamp_scale(out[:, : self.out_dim])
        shift = out[:, self.out_dim :]
        return s, shift


class MaskedConditioner:
    """MADE-masked MLP producing per-coordinate (s_i, b_i).

    The optional condition vector bypasses every mask: it is injected,
    unmasked, into each hidden layer, so conditioning never violates the
    autoregressive ordering over the data coordinates.  ``calls`` counts
    forward evaluations, which the sampling-complexity audit reads.
    """

    def __init__(self, store, prefix, d, cond_dim, rng, widths=(64, 64), mask_seed=0):
        self.d = d
        self.cond_dim = cond_dim
        self.masks = build_made_masks(d, widths, mask_seed)
        self.calls = 0
        self.hidden = []
        fan = d
        for i, width in enumerate(widths):
            w, b = _init_dense(store, f"{prefix}.h{i}", fan, width, rng)
            if cond_dim:
                v = store.add(
                    f"{prefix}.h{i}.v",
                    rng.normal(0.0, 1.0 / np.sqrt(cond_dim), size=(cond_dim, width)),
                )
            else:
                v = None
            self.hidden.append((w, v, b))
            fan = width
        w = store.add(f"{prefix}.out.w", np.zeros((fan, 2 * d)))
        b = store.add(f"{prefix}.out.b", np.zeros(2 * d))
        self.final = (w, b)
        self._mask_tensors = [Tensor(m) for m in self.masks.hidden_masks]
        self._out_mask = Tensor(np.tile(self.masks.out_mask, (1, 2)))

    def __call__(self, x, cond=None):
        if x.shape[-1] != self.d:
            raise ConfigurationError(
                f"masked conditioner built for d={self.d}, got {x.shape[-1]}"
            )
        if self.cond_dim and (cond is None or cond.shape[-1] != self.cond_dim):
            raise ConfigurationError("condition vector missing or mis-sized")
        self.calls += 1
        h = x
        for (w, v, b), mask in zip(self.hidden, self._mask_tensors):
            pre = h @ (w * mask) + b
            if v is not None:
                pre = pre + cond @ v
            h = gelu(pre)
        w, b = self.final
        out = h @ (w * self._out_mask) + b
        s = clamp_scale(out[:, : self.d])
        shift = out[:, self.d :]
        return s, shift


# ---------------------------------------------------------------------------
# Layer types
# ---------------------------------------------------------------------------


class CouplingLayer:
    """Affine coupling: h2' = exp(s(h1; e)) * h2 + b(h1; e)."""

    kind = "coupling"

    def __init__(self, store, prefix, d, cond_dim, rng, widths=(64, 64)):
        if d % 2:
            raise ConfigurationError("coupling layer needs even d")
        self.d = d
        self.half = d // 2
        self.net = ConditionerNet(
            store, prefix, self.half + cond_dim, d - self.half, rng, widths
        )

    def _sb(self, h1, cond):
        return self.net(concat([h1, cond], axis=1))

    def forward(self, x, cond, mode="train"):
        h1 = x[:, : self.half]
        h2 = x[:, self.half :]
        s, b = self._sb(h1, cond)
        y2 = h2 * exp(s) + b
        return concat([h1, y2], axis=1), s.sum(axis=1)

    def inverse(self, y, cond, mode="eval"):
        h1 = y[:, : self.half]
        y2 = y[:, self.half :]
        s, b = self._sb(h1, cond)
        h2 = (y2 - b) * exp(-s)
        return concat([h1, h2], axis=1)


class ConditionProjectionLayer:
    """Coupling variant whose scale and bias depend only on the condition."""

    kind = "condition_projection"

    def __init__(self, store, prefix, d, cond_dim, rng, widths=(64, 64)):
        if d % 2:
            raise ConfigurationError("condition projection layer needs even d")
        self.d = d
        self.half = d // 2
        self.net = ConditionerNet(store, prefix, cond_dim, d - self.half, rng, widths)

    def forward(self, x, cond, mode="train"):
        h1 = x[:, : self.half]
        h2 = x[:, self.half :]
        s, b = self.net(cond)
        y2 = h2 * exp(s) + b
        return concat([h1, y2], axis=1), s.sum(axis=1)

    def inverse(self, y, cond, mode="eval"):
        h1 = y[:, : self.half]
        y2 = y[:, self.half :]
        s, b = self.net(cond)
        h2 = (y2 - b) * exp(-s)
        return concat([h1, h2], axis=1)


class BatchNormFlow:
    """Batch normalization as an invertible flow.

    Train mode normalizes with biased batch statistics and updates running
    stats with momentum; eval mode applies the frozen affine map, which is
    the only direction-invertible regime.  Running variance is initialized
    to 1 - eps so a fresh layer is exactly the identity in eval mode.
    """

    kind = "batchnorm"

    def __init__(self, store, prefix, d, momentum=0.9, eps=1e-5):
        self.d = d
        self.momentum = momentum
        self.eps = eps
        self.mode = "train"
        self.running_mean = store.add(f"{prefix}.running_mean", np.zeros(d), trainable=False)
        self.running_var = store.add(
            f"{prefix}.running_var", np.full(d, 1.0 - eps), trainable=False
        )

    def _effective_mode(self, mode):
        return self.mode if mode is None else mode

    def forward(self, x, mode=None, update_stats=True):
        mode = self._effective_mode(mode)
        if mode == "train":
            if x.shape[0] < 2:
                raise ConfigurationError("train-mode batchnorm needs batch size >= 2")
            mu = x.mean(axis=0, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=0, keepdims=True)
            if update_stats:
                m = self.momentum
                self.running_mean.data = m * self.running_mean.data + (1 - m) * mu.data[0]
                self.running_var.data = m * self.running_var.data + (1 - m) * var.data[0]
        else:
            mu = self.running_mean.detach().reshape(1, self.d)
            centered = x - mu
            var = self.running_var.detach().reshape(1, self.d)
        y = centered / (var + self.eps) ** 0.5
        # identical for every sample in the batch, broadcast to (B,)
        ld = log(var + self.eps).sum() * (-0.5)
        return y, ld * Tensor(np.ones(x.shape[0]))

    def inverse(self, y, mode=None):
        mode = self._effective_mode(mode)
        if mode == "train":
            raise ModeError("batchnorm flow cannot invert with batch statistics")
        mu = self.running_mean.detach().reshape(1, self.d)
        var = self.running_var.detach().reshape(1, self.d)
        return y * (var + self.eps) ** 0.5 + mu


class MaskedARLayer:
    """Masked autoregressive layer, optionally conditioned on an attention
    matrix injected unmasked into every hidden layer.

    Density evaluation (forward) is a single vectorized conditioner pass;
    inversion is a Jacobi fixed-point solve that costs at most d + 1 passes
    and in practice about ten.  The pass counter lives on the conditioner
    (``layer.net.calls``).
    """

    kind = "masked_ar"

    def __init__(self, store, prefix, d, cond_dim, rng, widths=(64, 64), mask_seed=0):
        self.d = d
        self.cond_dim = cond_dim
        self.net = MaskedConditioner(store, prefix, d, cond_dim, rng, widths, mask_seed)

    def forward(self, x, cond=None, mode="train"):
        s, b = self.net(x, cond)
        return x * exp(s) + b, s.sum(axis=1)

    def inverse(self, y, cond=None, mode="eval"):
        """Jacobi fixed-point inversion: x <- (y - b(x)) * exp(-s(x)) from
        x = 0, one conditioner pass per sweep for every coordinate at once.

        The MADE masks make (s_i, b_i) depend only on x_j for j < i, so the
        system is strictly triangular: coordinate i is exact after sweep
        i + 1, the fixed point is unique, and d + 1 sweeps always reach (and
        confirm) it.  The loop stops at the first sweep that leaves x
        unchanged.  A non-finite state never compares equal, runs to the cap
        and is reported by the caller.  Pure numpy under no_grad: the
        generation direction of AR layers is never differentiated in this
        package.
        """
        y_data = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
        if cond is not None and not isinstance(cond, Tensor):
            cond = Tensor(cond)
        x = np.zeros_like(y_data)
        # a non-finite state meets the zero masked weights (inf * 0) and may
        # overflow exp; the caller turns it into a SamplingFault, so numpy
        # need not warn on the way
        with no_grad(), np.errstate(invalid="ignore", over="ignore"):
            for _ in range(self.d + 1):
                s, b = self.net(Tensor(x), cond)
                x_next = (y_data - b.data) * np.exp(-s.data)
                if np.array_equal(x_next, x):
                    break
                x = x_next
        return Tensor(x_next)


class UncondARLayer(MaskedARLayer):
    """Autoregressive projection with no conditioning input at all."""

    kind = "uncond_ar"

    def __init__(self, store, prefix, d, rng, widths=(64, 64), mask_seed=0):
        super().__init__(store, prefix, d, 0, rng, widths, mask_seed)

    def forward(self, x, cond=None, mode="train"):
        s, b = self.net(x, None)
        return x * exp(s) + b, s.sum(axis=1)

    def inverse(self, y, cond=None, mode="eval"):
        return super().inverse(y, None, mode)


class Permutation:
    """Fixed column permutation; volume-preserving (logdet 0)."""

    kind = "permutation"

    def __init__(self, perm):
        self.perm = np.asarray(perm, dtype=np.int64)
        self.inv_perm = np.argsort(self.perm)

    def forward(self, x, cond=None, mode="train"):
        return permute_columns(x, self.perm), None

    def inverse(self, y, cond=None, mode="eval"):
        return permute_columns(y, self.inv_perm)

    def apply_layout(self, layout):
        return layout[self.perm]


def half_swap_perm(d):
    h = d // 2
    return np.concatenate([np.arange(h, d), np.arange(0, h)])


def reversal_perm(d):
    return np.arange(d)[::-1].copy()


# ---------------------------------------------------------------------------
# Single-sample wrappers
# ---------------------------------------------------------------------------


def _as_row(vec):
    return Tensor(np.asarray(vec, dtype=np.float64).reshape(1, -1))


def _apply_single(layer, state, cond, direction, needs_cond=True):
    x = _as_row(state.vector)
    c = _as_row(cond) if (needs_cond and cond is not None) else None
    if direction == "forward":
        with no_grad():
            if needs_cond:
                y, ld = layer.forward(x, c)
            else:
                y, ld = layer.forward(x)
        return FlowState(y.data[0], state.accumulated_logdet + float(ld.data[0]))
    if direction == "inverse":
        with no_grad():
            if needs_cond:
                y = layer.inverse(x, c)
            else:
                y = layer.inverse(x)
        return FlowState(y.data[0], state.accumulated_logdet)
    raise ConfigurationError(f"unknown direction: {direction!r}")


def coupling_apply(state, cond, layer, direction="forward"):
    """Apply one coupling layer to a single FlowState."""
    return _apply_single(layer, state, cond, direction)


def condition_projection_apply(state, cond, layer, direction="forward"):
    return _apply_single(layer, state, cond, direction)


def masked_ar_apply(state, attn, layer, direction="forward"):
    """attn is the flattened attention matrix used as the condition."""
    return _apply_single(layer, state, attn, direction)


def uncond_ar_projection_apply(state, layer, direction="forward"):
    return _apply_single(layer, state, None, direction, needs_cond=False)


def batchnorm_apply(states, layer, direction="forward"):
    """Apply a batch-norm flow to a whole batch of FlowStates.

    The layer's own mode attribute decides train vs eval behaviour, matching
    how running statistics are defined.
    """
    x = Tensor(np.stack([s.vector for s in states]))
    if direction == "forward":
        with no_grad():
            y, ld = layer.forward(x)
        return [
            FlowState(y.data[i], states[i].accumulated_logdet + float(ld.data[i]))
            for i in range(len(states))
        ]
    if direction == "inverse":
        with no_grad():
            y = layer.inverse(x)
        return [FlowState(y.data[i], states[i].accumulated_logdet) for i in range(len(states))]
    raise ConfigurationError(f"unknown direction: {direction!r}")
