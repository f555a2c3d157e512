"""Checkpoint container: magic line, JSON header, raw float64 payload.

Layout on disk::

    URBANFLOWS-CKPT v1\n
    {json header}\n
    <payload bytes>

The header records the run config, the parameter manifest (name plus shape,
lexicographic by name), the RNG state and the exact payload byte count.  The
payload is every parameter flattened C-order as little-endian float64 and
concatenated in manifest order, so a save/load round trip is bit exact.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import (
    CheckpointManifestError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from .fileio import atomic_write
from .numerics import ParameterStore

MAGIC = b"URBANFLOWS-CKPT"
FORMAT_VERSION = 1


def _clean(obj):
    # np scalars leak into rng state dicts; JSON needs builtins
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    return obj


def rng_state_of(rng):
    return _clean(rng.bit_generator.state)


def save_checkpoint(path, store, config_dict, rng_state=None, extra=None):
    """Write ``store`` atomically: the magic line, the header, then each
    parameter's bytes straight from its array (``payload_arrays``), so the
    payload is never held whole in memory."""
    manifest = store.manifest()
    header = {
        "format_version": FORMAT_VERSION,
        "config": _clean(config_dict),
        "manifest": manifest,
        "rng_state": _clean(rng_state) if rng_state is not None else None,
        "payload_bytes": _manifest_bytes(manifest),
    }
    if extra:
        header["extra"] = _clean(extra)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + b" v%d\n" % FORMAT_VERSION)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for values in store.payload_arrays():
            fh.write(values)


def _manifest_bytes(manifest):
    """Payload size a manifest describes; rejects malformed entries."""
    if not isinstance(manifest, list):
        raise CheckpointManifestError("manifest is not a list")
    total = 0
    for entry in manifest:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], list)
                and all(type(v) is int and v >= 0 for v in entry[1])):
            raise CheckpointManifestError(f"malformed manifest entry {entry!r:.80}")
        total += 8 * math.prod(entry[1])
    return total


def read_header(path):
    """Parse and validate the header, then read the payload.

    The header's ``format_version`` must be the magic line's version as a
    JSON integer.  The payload is read straight into one fresh float64
    buffer, sized from the file (never from the header alone, so a header
    that declares more than the file holds raises before anything is
    allocated), and returned as a writable byte view of that buffer:
    ``len(payload)`` is its size in bytes.  A store opened on it
    (``ParameterStore.opened``), through which both the CLI and
    ``load_checkpoint`` install a payload, takes it without a copy.
    Returns (header, payload).
    """
    with open(path, "rb") as fh:
        magic_line = fh.readline()
        if not magic_line.endswith(b"\n"):
            raise CheckpointTruncatedError("checkpoint ends inside the magic line")
        magic_line = magic_line[:-1]
        if not magic_line.startswith(MAGIC + b" v"):
            raise CheckpointVersionError(f"bad magic line: {magic_line[:40]!r}")
        try:
            version = int(magic_line[len(MAGIC) + 2:])
        except ValueError:
            raise CheckpointVersionError(f"unreadable version in {magic_line!r}")
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"format version {version} not supported (expected {FORMAT_VERSION})"
            )
        header_line = fh.readline()
        if not header_line.endswith(b"\n"):
            raise CheckpointTruncatedError("checkpoint ends inside the header line")
        try:
            header = json.loads(header_line[:-1].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointManifestError(f"header is not valid JSON: {exc}")
        if not isinstance(header, dict):
            raise CheckpointManifestError("header is not a JSON object")
        for key in ("format_version", "config", "manifest", "payload_bytes"):
            if key not in header:
                raise CheckpointManifestError(f"header missing key {key!r}")
        stated = header["format_version"]
        if type(stated) is not int or stated != version:
            raise CheckpointVersionError(
                f"header format_version {stated!r:.40} does not match the magic line's v{version}"
            )
        if not isinstance(header["config"], dict):
            raise CheckpointManifestError("header config is not a JSON object")
        declared = header["payload_bytes"]
        expected = _manifest_bytes(header["manifest"])
        if declared != expected:
            raise CheckpointManifestError(
                f"manifest describes {expected} payload bytes but header declares {declared}"
            )
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held < declared:
            raise CheckpointTruncatedError(
                f"payload has {held} bytes, header declares {declared}"
            )
        if held > declared:
            raise CheckpointManifestError(
                f"payload has {held - declared} trailing bytes beyond the declared {declared}"
            )
        payload = memoryview(np.empty(expected // 8)).cast("B")
        if fh.readinto(payload) != expected:
            raise CheckpointTruncatedError("checkpoint shrank while it was read")
    return header, payload


def load_checkpoint(path, store):
    """Read a checkpoint and install its payload into the built ``store``.

    The install is the CLI's: a store opened on the payload hands out the
    view of each of ``store``'s tensors by name and shape, and
    ``check_complete`` rejects a left-over entry, a non-finite value or a
    running variance <= 0.  Only then does each tensor take its view as
    ``.data``, so a load that raises changes no parameter.  Returns
    (header, payload).
    """
    header, payload = read_header(path)
    opened = ParameterStore.opened(header["manifest"], payload)
    views = [(t, opened.param(name, t.shape).data) for name, t in store.items()]
    opened.check_complete()
    for t, view in views:
        t.data = view
    return header, payload
