"""Named parameter registry with a deterministic serialization order.

Layers register each parameter as (name, shape, init recipe) through
``ParameterStore.param``.  A fresh store runs every recipe as it is
registered, so a model built on it draws its initial values from the
layers' rng in registration order.  A store opened on a checkpoint payload
(``ParameterStore.opened``) runs no recipe: it hands out writable views of
the one float64 buffer the payload lives in, so a model built on it draws
nothing and copies no value.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CheckpointManifestError, CheckpointValueError, ConfigurationError
from .tape import Tensor

_MISMATCH = "parameter manifest does not match model structure"


def normal(rng, std):
    """Init recipe: independent N(0, std^2) entries, drawn from ``rng`` when
    a fresh store registers the parameter."""
    return lambda shape: rng.normal(0.0, std, size=shape)


class ParameterStore:
    """Flat name -> Tensor map.

    Names are hierarchical strings ("zone.block0.coupling.w1").  All
    iteration, manifests, and payloads use lexicographic name order so that
    serialization is reproducible byte for byte.  A payload is installed one
    way: a store ``opened`` on it hands out its views, and
    ``check_complete`` checks them.  The CLI builds its model on such a
    store; ``checkpoint.load_checkpoint`` takes the views for an already
    built store's tensors the same way and swaps them in.
    """

    def __init__(self):
        self._params = {}
        # an opened store: (payload buffer, [(name, view)] in manifest
        # order, {name: view} of the entries not yet registered)
        self._opened = None

    @classmethod
    def opened(cls, manifest, payload):
        """A store whose parameters are a checkpoint payload's values.

        ``manifest`` lists (name, shape) in lexicographic name order, as a
        checkpoint header does.  The payload becomes one float64 buffer
        (itself, when it already is a writable one, else one copy), and
        ``param`` hands out writable C-contiguous views of it, one slice
        per entry in manifest order.  Building a model on the store checks
        the manifest against the model; ``check_complete`` then checks that
        nothing was left over and that every value is one a trained model
        holds.
        """
        entries = [(str(name), tuple(int(v) for v in shape)) for name, shape in manifest]
        if any(a[0] >= b[0] for a, b in zip(entries, entries[1:])):
            raise CheckpointManifestError(_MISMATCH)
        nbytes = memoryview(payload).nbytes
        described = 8 * sum(math.prod(shape) for _, shape in entries)
        if nbytes != described:
            raise CheckpointManifestError(
                f"payload has {nbytes} bytes, manifest describes {described}")
        flat = np.frombuffer(payload, dtype="<f8")
        if not (flat.flags.writeable and flat.flags.aligned and flat.dtype.isnative):
            flat = flat.astype(np.float64)
        layout = []
        offset = 0
        for name, shape in entries:
            size = math.prod(shape)
            layout.append((name, flat[offset:offset + size].reshape(shape)))
            offset += size
        store = cls()
        store._opened = (flat, layout, dict(layout))
        return store

    def param(self, name, shape, init=0.0, trainable=True):
        """Register a parameter of ``shape`` and return its tensor.

        ``init`` is a constant fill value or a recipe ``shape -> array``
        such as ``normal(rng, std)``; only a fresh store runs it.
        ``trainable`` is the tensor's ``requires_grad``: non-trainable
        entries (running statistics) still appear in manifests and payloads
        but are skipped by ``trainable_items``.
        """
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name: {name}")
        shape = tuple(shape)
        if self._opened is None:
            data = init(shape) if callable(init) else np.full(shape, init, dtype=np.float64)
        else:
            data = self._opened[2].pop(name, None)
            if data is None or data.shape != shape:
                raise CheckpointManifestError(_MISMATCH)
        t = Tensor(data, requires_grad=trainable)
        self._params[name] = t
        return t

    def check_complete(self):
        """For an opened store, once the model is built on it: raise
        ``CheckpointManifestError`` if the payload holds a parameter the
        model did not register, and ``CheckpointValueError`` naming the
        first parameter, in manifest order, that holds a non-finite value
        or a ``*.running_var`` <= 0.  A fresh store passes."""
        if self._opened is None:
            return
        flat, layout, unclaimed = self._opened
        if unclaimed:
            raise CheckpointManifestError(_MISMATCH)
        all_finite = np.isfinite(flat).all()
        for name, arr in layout:
            if not all_finite and not np.isfinite(arr).all():
                raise CheckpointValueError(f"parameter {name} holds a non-finite value")
            if name.endswith(".running_var") and (arr <= 0.0).any():
                raise CheckpointValueError(f"parameter {name} holds a variance <= 0")

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def trainable_items(self):
        return ((name, t) for name, t in self.items() if t.requires_grad)

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def manifest(self):
        return [[name, list(self._params[name].shape)] for name in self.names()]

    def payload_arrays(self):
        """The checkpoint payload, one parameter at a time: each value array
        as C-ordered little-endian float64 (the array itself when it already
        is one), in manifest order."""
        return (np.ascontiguousarray(self._params[name].data, dtype="<f8")
                for name in self.names())

    def to_payload(self):
        return b"".join(self.payload_arrays())

    def snapshot(self, prefix="", trainable=True):
        """Copies of the values of every parameter whose name starts with
        ``prefix`` (all of them by default), for ``restore``.

        ``trainable=False`` leaves the trainable entries out: what is left
        are the running statistics, the only values a train-mode forward
        changes."""
        return {name: t.data.copy() for name, t in self._params.items()
                if name.startswith(prefix) and (trainable or not t.requires_grad)}

    def restore(self, snap):
        """Write a ``snapshot``'s values back into the parameters' arrays,
        so a parameter that is a view of an opened store's buffer stays
        one."""
        for name, arr in snap.items():
            np.copyto(self._params[name].data, arr)
