"""Invertible layers: coupling, condition projection, batch-norm flow, and
the two masked autoregressive layer types, plus the MADE mask builder and
``FlowStack``, the block-and-permutation stack both stages are built from.

Conventions used throughout:

* "forward" is the data -> latent direction whose accumulated log-det enters
  the negative log-likelihood; "inverse" is the generation direction.
* Layers operate on batches only: vectors are (B, d) tensors, log-dets are
  (B,) tensors; one sample is a batch of one.
* Scale outputs are clamped to [-CLAMP, CLAMP] through a smooth tanh squash
  so exp(s) stays within [e^-5, e^5] no matter what the conditioner emits.
* Every conditioner pass, dense or MADE-masked, is one ``conditioner_mlp``
  tape node, clamp included.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ConfigurationError, ModeError, SamplingFault
from .numerics import Tensor, concat, conditioner_mlp, exp, log, no_grad, permute_columns

CLAMP = 5.0
LN_2PI = float(np.log(2.0 * np.pi))
# row blocks of one batch run their passes on several threads
_CALLS_LOCK = threading.Lock()


def gaussian_logp(z):
    """Per-sample standard-normal log-density of a (B, d) tensor."""
    d = z.shape[-1]
    return (z * z).sum(axis=-1) * (-0.5) - 0.5 * d * LN_2PI


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


def _mlp_pass(x, hidden, final, d):
    """One conditioner pass as one tape node, split into (s, b)."""
    out = conditioner_mlp(x, hidden, *final, d, CLAMP)
    return out[:, :d], out[:, d:]


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
        self.hidden = []
        fan = in_dim
        for i, width in enumerate(widths):
            self.hidden.append((*_init_dense(store, f"{prefix}.h{i}", fan, width, rng), None))
            fan = width
        self.final = _init_dense(store, f"{prefix}.out", fan, 2 * out_dim, rng, zero=True)

    def __call__(self, x):
        return _mlp_pass(x, self.hidden, self.final, self.out_dim)


class MaskedConditioner:
    """MADE-masked MLP producing per-coordinate (s_i, b_i).

    The optional condition vector bypasses every mask: it is injected,
    unmasked, into each hidden layer, so conditioning never violates the
    autoregressive ordering over the data coordinates.

    ``bind(cond)`` builds what one condition fixes for any number of passes
    (the masked weights ``w * mask`` and each hidden layer's condition term
    ``cond @ v``) and returns the pass ``x -> (s, b)``; a call
    ``net(x, cond)`` is ``net.bind(cond)(x)``, so the density forward (on
    the tape) and the fixed-point inverse run the same code.  ``calls``
    counts passes, which the sampling-complexity audit reads; it stays
    exact when passes run on several threads at once.
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

    def bind(self, cond=None):
        """Fix the condition and return the pass ``x -> (s, b)``."""
        if self.cond_dim and (cond is None or cond.shape[-1] != self.cond_dim):
            raise ConfigurationError("condition vector missing or mis-sized")
        hidden = [(w * mask, b, None if v is None else cond @ v)
                  for (w, v, b), mask in zip(self.hidden, self._mask_tensors)]
        w, b_out = self.final
        final = (w * self._out_mask, b_out)
        d = self.d

        def conditioner_pass(x):
            if x.shape[-1] != d:
                raise ConfigurationError(
                    f"masked conditioner built for d={d}, got {x.shape[-1]}"
                )
            with _CALLS_LOCK:
                self.calls += 1
            return _mlp_pass(x, hidden, final, d)

        return conditioner_pass

    def __call__(self, x, cond=None):
        return self.bind(cond)(x)


# ---------------------------------------------------------------------------
# Layer types
# ---------------------------------------------------------------------------


class CouplingLayer:
    """Affine coupling: h2' = exp(s) * h2 + b, where the conditioner reads
    (h1 ‖ e), or e alone when ``reads_h1`` is off."""

    kind = "coupling"
    reads_h1 = True

    def __init__(self, store, prefix, d, cond_dim, rng, widths=(64, 64)):
        if d % 2:
            raise ConfigurationError(f"{self.kind.replace('_', ' ')} layer needs even d")
        self.d = d
        self.half = d // 2
        in_dim = self.half + cond_dim if self.reads_h1 else cond_dim
        self.net = ConditionerNet(store, prefix, in_dim, d - self.half, rng, widths)

    def _sb(self, h1, cond):
        return self.net(concat([h1, cond], axis=1) if self.reads_h1 else cond)

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


class ConditionProjectionLayer(CouplingLayer):
    """Coupling variant whose scale and bias depend only on the condition."""

    kind = "condition_projection"
    reads_h1 = False


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
        self.running_mean = store.add(f"{prefix}.running_mean", np.zeros(d), trainable=False)
        self.running_var = store.add(
            f"{prefix}.running_var", np.full(d, 1.0 - eps), trainable=False
        )

    def forward(self, x, mode="train", update_stats=True):
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

    def inverse(self, y, mode="eval"):
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
        and is reported by the caller.  The conditioner is bound to ``cond``
        once, so the sweeps share its masked weights and condition terms.
        Runs under no_grad: the generation direction of AR layers is never
        differentiated in this package.
        """
        y_data = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
        if cond is not None and not isinstance(cond, Tensor):
            cond = Tensor(cond)
        x = np.zeros_like(y_data)
        # a non-finite state meets the zero masked weights (inf * 0) and may
        # overflow exp; the caller turns it into a SamplingFault, so numpy
        # need not warn on the way
        with no_grad(), np.errstate(invalid="ignore", over="ignore"):
            conditioner_pass = self.net.bind(cond)
            for _ in range(self.d + 1):
                s, b = conditioner_pass(Tensor(x))
                x_next = (y_data - b.data) * np.exp(-s.data)
                if np.array_equal(x_next, x):
                    break
                x = x_next
        return Tensor(x_next)


class UncondARLayer(MaskedARLayer):
    """Autoregressive projection with no conditioning input at all: its
    conditioner has ``cond_dim == 0`` and ignores any ``cond`` passed in."""

    kind = "uncond_ar"

    def __init__(self, store, prefix, d, rng, widths=(64, 64), mask_seed=0):
        super().__init__(store, prefix, d, 0, rng, widths, mask_seed)


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


def half_swap_perm(d):
    h = d // 2
    return np.concatenate([np.arange(h, d), np.arange(0, h)])


def reversal_perm(d):
    return np.arange(d)[::-1].copy()


# ---------------------------------------------------------------------------
# Layer stack
# ---------------------------------------------------------------------------


class FlowStack:
    """Blocks of invertible layers with a fixed ``Permutation`` between
    consecutive blocks (the RealNVP/MAF layout).

    ``blocks`` is a list of dicts of layers, applied in dict order; an
    ablated layer is None and is skipped.  ``layers`` is the flat forward
    list of (kind, block_index, layer, layout) with no permutation entries;
    ``layout`` names the canonical coordinate each position holds at the
    layer's input, so the ``collect`` hooks report states in data
    coordinates.  ``cond`` goes to every layer but batch-norm; a layer with
    no conditioning input ignores it.
    """

    def __init__(self, blocks, perm):
        self.blocks = blocks
        self.perm = perm
        self.d = len(perm.perm)
        self.layers = []
        layout = np.arange(self.d)
        for block_idx, block in enumerate(blocks):
            if block_idx > 0:
                layout = layout[perm.perm]
            for layer in block.values():
                if layer is not None:
                    self.layers.append((layer.kind, block_idx, layer, layout))
        self.final_layout = layout
        self.final_inv = np.argsort(layout)

    def forward(self, x, cond, mode="train", update_stats=True, collect=None):
        """Data -> latent; returns (z in canonical coords, per-sample logdet).

        ``collect`` receives (flat_index, kind, canonical state ndarray)
        after each layer when provided.
        """
        h = x
        logdet = Tensor(np.zeros(x.shape[0]))
        prev_block = 0
        for flat_idx, (kind, block_idx, layer, layout) in enumerate(self.layers):
            if block_idx != prev_block:
                h, _ = self.perm.forward(h)
                prev_block = block_idx
            if kind == "batchnorm":
                h, ld = layer.forward(h, mode, update_stats)
            else:
                h, ld = layer.forward(h, cond, mode)
            logdet = logdet + ld
            if collect is not None:
                collect(flat_idx, kind, h.data[:, np.argsort(layout)])
        return permute_columns(h, self.final_inv), logdet

    def inverse(self, z, cond, mode="eval", collect=None):
        """Latent -> data.  Differentiable through coupling, condition
        projection and eval-mode batch-norm; AR layers are inverted by a
        fixed-point solve that is not.

        Raises ``SamplingFault`` naming the first layer whose output is
        non-finite.  ``collect`` receives (flat_index, kind, canonical state
        ndarray) after each inverted layer when provided.
        """
        h = permute_columns(z, self.final_layout)
        for flat_idx in range(len(self.layers) - 1, -1, -1):
            kind, block_idx, layer, layout = self.layers[flat_idx]
            if kind == "batchnorm":
                h = layer.inverse(h, mode)
            else:
                h = layer.inverse(h, cond, mode)
            if not np.all(np.isfinite(h.data)):
                raise SamplingFault(
                    f"non-finite state after inverting layer {flat_idx} "
                    f"({kind} of block {block_idx})", layer_index=flat_idx)
            if collect is not None:
                collect(flat_idx, kind, h.data[:, np.argsort(layout)])
            if flat_idx > 0 and self.layers[flat_idx - 1][1] != block_idx:
                h = self.perm.inverse(h)
        return h
