"""Invertible layers: coupling, condition projection, batch-norm flow, and
the two masked autoregressive layer types, plus their one conditioner
class, the MADE mask builder and ``FlowStack``, the block-and-permutation
stack both stages are built from.

Conventions used throughout:

* "forward" is the data -> latent direction whose accumulated log-det enters
  the negative log-likelihood; "inverse" is the generation direction.
* Layers operate on batches only: vectors are (B, d) tensors, log-dets are
  (B,) tensors; one sample is a batch of one.
* Scale outputs are clamped to [-CLAMP, CLAMP] through a smooth tanh squash
  so exp(s) stays within [e^-5, e^5] no matter what the conditioner emits.
* Every affine layer takes its (s, b) from a ``Conditioner``: dense for
  coupling and condition projection, MADE-masked for the two AR layers.
* ``FlowStack.forward`` carries one packed (B, d + 1) state ``[h |
  log-det]``: each layer's ``step`` is one ``affine_step`` or
  ``batchnorm_flow`` node that maps it to ``[y | log-det + its own]``, and
  the stack splits it once, at the end.  A layer's ``forward(x, ...) ->
  (y, ld)`` is ``step`` on ``[x | 0]``.  A coupling or batch-norm inverse
  is one node too, and the AR layers' Jacobi sweeps run
  ``Conditioner.bind`` on ndarrays.
* Layers register their parameters as (name, shape, init recipe), so a
  store opened on a checkpoint builds them without drawing anything.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .errors import ConfigurationError, ModeError, SamplingFault, check_mode
from .numerics import (
    Tensor,
    affine_step,
    append_zero_column,
    as_tensor,
    batchnorm_flow,
    conditioner_mlp_arrays,
    no_grad,
    normal,
    pass_arrays,
    permute_columns,
)

CLAMP = 5.0
LN_2PI = float(np.log(2.0 * np.pi))
# row blocks of one batch run their passes on several threads
_CALLS_LOCK = threading.Lock()


def _check_width(width, got, what="flow layer"):
    if got != width:
        raise ConfigurationError(f"{what} built for width {width}, got {got}")


def _split(state):
    """(y, log-det) of a packed ``[y | log-det]`` state."""
    return state[:, :-1], state[:, -1]


def gaussian_logp(z):
    """Per-sample standard-normal log-density of a (B, d) tensor."""
    d = z.shape[-1]
    return (z * z).sum(axis=-1) * (-0.5) - 0.5 * d * LN_2PI


class TraceStep:
    """One recorded step of a generation trace.

    ``state`` is expressed in canonical data coordinates except for the very
    first step, which is the latent draw itself.  ``counts`` is the quantized
    state, (N, N, P), and ``histogram`` its per-category sum.
    """

    __slots__ = ("layer_index", "layer_type", "state", "counts", "histogram")

    def __init__(self, layer_index, layer_type, state, counts):
        self.layer_index = int(layer_index)
        self.layer_type = str(layer_type)
        self.state = np.asarray(state, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.histogram = self.counts.sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# MADE masks and the conditioner network
# ---------------------------------------------------------------------------


def build_made_masks(d, hidden_widths, seed):
    """The MADE masks for input dimension d >= 2 and the given hidden
    widths: a tuple of read-only ``bool`` arrays, one per conditioner
    weight matrix in order, as ``affine_step`` takes them.  Each hidden
    layer's mask is (fan_in, fan_out); the last, (last_width, 2 d), covers
    the (s, b) output panels alike.  Each multiplies its weight matrix
    elementwise, as exactly 0.0 or 1.0.

    Input coordinate j carries degree j (1-based) and hidden degrees are
    drawn uniformly from [1, d-1] using the seed; output i connects only to
    hidden units of degree < i, so output 1 sees nothing at all.  The same
    (d, widths, seed) triple always yields identical masks; each triple is
    built once and its tuple shared.
    """
    return _made_masks(int(d), tuple(int(w) for w in hidden_widths), int(seed))


@functools.lru_cache(maxsize=None)
def _made_masks(d, hidden_widths, seed):
    if d < 2:
        raise ConfigurationError("autoregressive masks need d >= 2")
    if any(w < 1 for w in hidden_widths):
        raise ConfigurationError("hidden widths must be >= 1")
    rng = np.random.default_rng(seed)
    in_degrees = np.arange(1, d + 1)
    prev = in_degrees
    masks = []
    for width in hidden_widths:
        deg = rng.integers(1, d, size=width)
        # unit h keeps input j iff deg(h) >= deg(j)
        masks.append(prev[:, None] <= deg[None, :])
        prev = deg
    # output i keeps hidden h iff i > deg(h): strictly lower inputs only
    masks.append(np.tile(prev[:, None] < in_degrees[None, :], (1, 2)))
    for arr in masks:
        arr.flags.writeable = False
    return tuple(masks)


class Conditioner:
    """GELU MLP (two hidden layers by default) mapping an affine flow
    layer's input to per-coordinate ``(s, b)``, ``d`` of each.

    Dense when ``mask_seed`` is None, as for coupling, which feeds it
    (h1 ‖ e).  With a seed it is a MADE network over ``in_dim == d``
    coordinates, and ``masks`` is ``build_made_masks``' shared tuple (None
    when dense): output i sees only inputs j < i.  A ``cond_dim``-wide
    condition enters each hidden layer as an unmasked term ``cond @ v``, so
    it never breaks that ordering; a MADE network with a condition and no
    hidden layer raises ``ConfigurationError``.
    The zero-initialized output layer makes fresh flows the identity.

    ``bind(cond)`` fixes the condition (an ndarray or None) and returns the
    pass ``x -> (s, b)`` on ndarrays, off the tape, which the fixed-point
    inverse sweeps: it builds the masked weights and condition terms once
    per bind, and each pass runs ``conditioner_mlp_arrays``.  ``step`` is a
    whole affine layer step around one pass, one ``affine_step`` node.
    ``calls`` counts every pass, which the sampling-complexity audit reads;
    it stays exact when passes run on several threads at once.
    """

    def __init__(self, store, prefix, in_dim, d, rng, widths=(64, 64), cond_dim=0,
                 mask_seed=None):
        if mask_seed is not None and cond_dim and not widths:
            raise ConfigurationError("a conditioned MADE network needs a hidden layer "
                                     "for its condition terms")
        self.in_dim = in_dim
        self.d = d
        self.cond_dim = cond_dim
        self.masks = None if mask_seed is None else build_made_masks(d, widths, mask_seed)
        self.calls = 0
        self.hidden = []
        fan = in_dim
        for i, width in enumerate(widths):
            w = store.param(f"{prefix}.h{i}.w", (fan, width),
                            normal(rng, 1.0 / np.sqrt(max(fan, 1))))
            b = store.param(f"{prefix}.h{i}.b", (width,))
            v = (store.param(f"{prefix}.h{i}.v", (cond_dim, width),
                             normal(rng, 1.0 / np.sqrt(cond_dim))) if cond_dim else None)
            self.hidden.append((w, b, v))
            fan = width
        self.final = (store.param(f"{prefix}.out.w", (fan, 2 * d)),
                      store.param(f"{prefix}.out.b", (2 * d,)))

    def _check_cond(self, cond):
        if self.cond_dim and (cond is None or cond.shape[-1] != self.cond_dim):
            raise ConfigurationError("condition vector missing or mis-sized")

    def _count(self, width):
        _check_width(self.in_dim, width, "conditioner")
        with _CALLS_LOCK:
            self.calls += 1

    def bind(self, cond=None):
        """Fix the condition (an ndarray or None) and return the pass
        ``x -> (s, b)`` on ndarrays, with no tape."""
        self._check_cond(cond)
        weights, hidden = pass_arrays(self.hidden, self.final[0], self.masks)
        hidden = [(w, b, None if v is None else cond @ v) for w, b, v in hidden]
        b_out, d = self.final[1].data, self.d

        def conditioner_pass(x):
            self._count(x.shape[-1])
            out = conditioner_mlp_arrays(x, hidden, weights[-1], b_out, d, CLAMP)[0]
            return out[:, :d], out[:, d:]

        return conditioner_pass

    def step(self, x, cond, lo, reads, inverse=False):
        """An affine layer step around one pass, which reads x's first
        ``reads`` columns (then ``cond``, when there are no condition
        terms) and transforms its columns from ``lo`` on, as one
        ``affine_step`` node: packed ``[h | ld]`` to ``[y | ld + log-det]``
        forward, y to h inverse."""
        _check_width(lo + self.d, x.shape[-1] - (not inverse))
        self._check_cond(cond)
        self._count(reads if self.cond_dim or cond is None else reads + cond.shape[-1])
        return affine_step(x, cond, self.hidden, *self.final, CLAMP, lo, reads,
                           self.masks, inverse)


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
        self.reads = self.half if self.reads_h1 else 0
        self.net = Conditioner(store, prefix, self.reads + cond_dim, d - self.half, rng,
                               widths)

    def step(self, state, cond, mode="train"):
        """Packed forward: ``[h | ld]`` -> ``[y | ld + log-det]``."""
        check_mode(mode)
        return self.net.step(state, cond, self.half, self.reads)

    def forward(self, x, cond, mode="train"):
        return _split(self.step(append_zero_column(x), cond, mode))

    def inverse(self, y, cond, mode="eval"):
        check_mode(mode)
        return self.net.step(y, cond, self.half, self.reads, inverse=True)


class ConditionProjectionLayer(CouplingLayer):
    """Coupling variant whose scale and bias depend only on the condition."""

    kind = "condition_projection"
    reads_h1 = False


class BatchNormFlow:
    """Batch normalization as an invertible flow.

    Train mode normalizes with biased batch statistics and updates running
    stats with ``momentum``; eval mode applies the frozen affine map, which
    is the only direction-invertible regime.  Running variance is
    initialized to 1 - eps so a fresh layer is exactly the identity in eval
    mode.
    """

    kind = "batchnorm"
    momentum = 0.9
    eps = 1e-5

    def __init__(self, store, prefix, d):
        self.d = d
        self.running_mean = store.param(f"{prefix}.running_mean", (d,), trainable=False)
        self.running_var = store.param(f"{prefix}.running_var", (d,), 1.0 - self.eps,
                                       trainable=False)

    def _running(self):
        return (self.running_mean.data.reshape(1, self.d),
                self.running_var.data.reshape(1, self.d))

    def step(self, state, mode="train", update_stats=True):
        """Packed forward: ``[h | ld]`` -> ``[y | ld + log-det]``.  Train
        mode updates the running statistics in place, so a store opened
        on a checkpoint keeps them as views of its buffer."""
        check_mode(mode)
        _check_width(self.d, state.shape[-1] - 1)
        if mode == "train":
            if state.shape[0] < 2:
                raise ConfigurationError("train-mode batchnorm needs batch size >= 2")
            x = state.data[:, : self.d]
            mu = x.mean(axis=0, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=0, keepdims=True)
            if update_stats:
                m = self.momentum
                for stat, batch in ((self.running_mean.data, mu[0]),
                                    (self.running_var.data, var[0])):
                    np.add(m * stat, (1 - m) * batch, out=stat)
        else:
            mu, var = self._running()
        return batchnorm_flow(state, mu, var, self.eps, batch_stats=mode == "train")

    def forward(self, x, mode="train", update_stats=True):
        return _split(self.step(append_zero_column(x), mode, update_stats))

    def inverse(self, y, mode="eval"):
        check_mode(mode)
        if mode == "train":
            raise ModeError("batchnorm flow cannot invert with batch statistics")
        _check_width(self.d, y.shape[-1])
        mu, var = self._running()
        return batchnorm_flow(y, mu, var, self.eps, inverse=True)


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
        self.net = Conditioner(store, prefix, d, d, rng, widths, cond_dim, mask_seed)

    def step(self, state, cond=None, mode="train"):
        """Packed forward: ``[h | ld]`` -> ``[y | ld + log-det]``."""
        check_mode(mode)
        return self.net.step(state, cond if self.cond_dim else None, 0, self.d)

    def forward(self, x, cond=None, mode="train"):
        return _split(self.step(append_zero_column(x), cond, mode))

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
        The sweeps run on ndarrays, off the tape: the generation direction
        of AR layers is never differentiated in this package.
        """
        check_mode(mode)
        y_data = y.data
        x = np.zeros_like(y_data)
        # a non-finite state meets the zero masked weights (inf * 0) and may
        # overflow exp; the caller turns it into a SamplingFault, so numpy
        # need not warn on the way
        with np.errstate(invalid="ignore", over="ignore"):
            conditioner_pass = self.net.bind(None if cond is None else cond.data)
            for _ in range(self.d + 1):
                s, b = conditioner_pass(x)
                x_next = (y_data - b) * np.exp(-s)
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

    ``blocks`` is a non-empty list of dicts of layers, applied in dict
    order; an ablated layer is None and is skipped.  ``layers`` is the flat
    forward list of (kind, block_index, layer, layout) with no permutation
    entries; ``layout`` names the canonical coordinate each position holds
    at the layer's input, so the ``collect`` hooks report states in data
    coordinates.  ``cond`` goes to every layer but batch-norm; a layer with
    no conditioning input ignores it.  ``packed_perm`` is the permutation
    extended by the log-det column, which stays last.
    """

    def __init__(self, blocks, perm):
        if not blocks:
            raise ConfigurationError("need at least one block")
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
        self.packed_perm = np.append(perm.perm, self.d)

    def forward(self, x, cond, mode="train", update_stats=True, collect=None):
        """Data -> latent; returns (z in canonical coords, per-sample logdet).

        ``collect`` receives (flat_index, kind, canonical state ndarray)
        after each layer when provided.
        """
        check_mode(mode)
        state = append_zero_column(x)
        prev_block = 0
        for flat_idx, (kind, block_idx, layer, layout) in enumerate(self.layers):
            if block_idx != prev_block:
                state = permute_columns(state, self.packed_perm)
                prev_block = block_idx
            if kind == "batchnorm":
                state = layer.step(state, mode, update_stats)
            else:
                state = layer.step(state, cond, mode)
            if collect is not None:
                collect(flat_idx, kind, state.data[:, np.argsort(layout)])
        return permute_columns(state, self.final_inv), state[:, self.d]

    def first_nonfinite_layer(self, x, cond, mode):
        """Flat index of the first layer whose output is non-finite, or
        None, found by replaying the forward with batch statistics left as
        they are (fault path only)."""
        bad = []

        def watch(flat_idx, kind, state):
            if not bad and not np.all(np.isfinite(state)):
                bad.append(flat_idx)

        with no_grad():
            self.forward(x, cond, mode, update_stats=False, collect=watch)
        return bad[0] if bad else None

    def inverse(self, z, cond, collect=None):
        """Latent -> data, with batch-norm in eval mode, the only mode it
        inverts in.  Differentiable through coupling, condition projection
        and batch-norm; AR layers are inverted by a fixed-point solve that
        is not.

        Raises ``SamplingFault`` naming the first layer whose output is
        non-finite.  ``collect`` receives (flat_index, kind, canonical state
        ndarray) after each inverted layer when provided.
        """
        h = permute_columns(z, self.final_layout)
        # overflow on the way to a non-finite state ends in the fault below
        with np.errstate(over="ignore", invalid="ignore"):
            for flat_idx in range(len(self.layers) - 1, -1, -1):
                kind, block_idx, layer, layout = self.layers[flat_idx]
                if kind == "batchnorm":
                    h = layer.inverse(h)
                else:
                    h = layer.inverse(h, cond)
                if not np.all(np.isfinite(h.data)):
                    raise SamplingFault(
                        f"non-finite state after inverting layer {flat_idx} "
                        f"({kind} of block {block_idx})", layer_index=flat_idx)
                if collect is not None:
                    collect(flat_idx, kind, h.data[:, np.argsort(layout)])
                if flat_idx > 0 and self.layers[flat_idx - 1][1] != block_idx:
                    h = self.perm.inverse(h)
        return h

    def sample(self, cond, rng, collect=None, z=None):
        """Draw a batch by inverting the stack off the tape: the (B, d)
        latent ``z`` is drawn from ``rng`` unless given.  ``cond`` is the
        stage's condition, an ndarray or tensor with one row per sample;
        ``collect`` is ``inverse``'s.  Returns (x ndarray, z)."""
        cond = as_tensor(cond)
        if z is None:
            z = rng.standard_normal((cond.shape[0], self.d))
        with no_grad():
            x = self.inverse(Tensor(z), cond, collect)
        return x.data, z
