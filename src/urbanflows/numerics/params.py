"""Named parameter registry with a deterministic serialization order."""

from __future__ import annotations

import numpy as np

from ..errors import CheckpointManifestError, CheckpointValueError, ConfigurationError
from .tape import Tensor


class ParameterStore:
    """Flat name -> Tensor map.

    Names are hierarchical strings ("zone.block0.coupling.w1").  All
    iteration, manifests, and payloads use lexicographic name order so that
    serialization is reproducible byte for byte.
    """

    def __init__(self):
        self._params = {}
        self._trainable = {}

    def add(self, name, data, trainable=True):
        """Register a tensor.  Non-trainable entries (running statistics)
        still appear in manifests and payloads but are skipped by
        ``trainable_items``."""
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=trainable)
        self._params[name] = t
        self._trainable[name] = bool(trainable)
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def trainable_items(self):
        for name in self.names():
            if self._trainable[name]:
                yield name, self._params[name]

    def tensors(self):
        return [self._params[name] for name in self.names()]

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def manifest(self):
        return [[name, list(self._params[name].shape)] for name in self.names()]

    def to_payload(self):
        chunks = [self._params[name].data.astype("<f8").tobytes() for name in self.names()]
        return b"".join(chunks)

    def payload_size(self):
        return 8 * sum(t.size for t in self._params.values())

    def load_payload(self, manifest, payload):
        """Fill parameter values from a manifest + raw float64 payload.

        The manifest must list exactly this store's names with matching
        shapes, in lexicographic order.  A non-finite value, or a
        ``*.running_var`` entry <= 0, raises ``CheckpointValueError`` naming
        the parameter, and then no parameter is changed.
        """
        expected = self.manifest()
        got = [[str(n), [int(v) for v in s]] for n, s in manifest]
        if got != expected:
            raise CheckpointManifestError(
                "parameter manifest does not match model structure"
            )
        values = []
        offset = 0
        for name in self.names():
            t = self._params[name]
            arr = np.frombuffer(payload, dtype="<f8", count=t.size, offset=offset)
            arr = arr.reshape(t.shape).astype(np.float64)
            if not np.isfinite(arr).all():
                raise CheckpointValueError(f"parameter {name} holds a non-finite value")
            if name.endswith(".running_var") and (arr <= 0.0).any():
                raise CheckpointValueError(f"parameter {name} holds a variance <= 0")
            values.append((t, arr))
            offset += 8 * t.size
        for t, arr in values:
            t.data = arr

    def snapshot(self, prefix=""):
        """Copies of the values of every parameter whose name starts with
        ``prefix`` (all of them by default), for ``restore``."""
        return {name: t.data.copy() for name, t in self._params.items()
                if name.startswith(prefix)}

    def restore(self, snap):
        for name, arr in snap.items():
            self._params[name].data = arr.copy()
