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

import numpy as np

from .errors import (
    CheckpointManifestError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from .fileio import atomic_write

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


def restore_rng(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def save_checkpoint(path, store, config_dict, rng_state=None, extra=None):
    payload = store.to_payload()
    header = {
        "format_version": FORMAT_VERSION,
        "config": _clean(config_dict),
        "manifest": store.manifest(),
        "rng_state": _clean(rng_state) if rng_state is not None else None,
        "payload_bytes": len(payload),
    }
    if extra:
        header["extra"] = _clean(extra)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC + b" v%d\n" % FORMAT_VERSION)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


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
    """Parse and validate the header without touching any parameter store."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl1 = blob.find(b"\n")
    if nl1 < 0:
        raise CheckpointTruncatedError("checkpoint ends inside the magic line")
    magic_line = blob[:nl1]
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
    nl2 = blob.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise CheckpointTruncatedError("checkpoint ends inside the header line")
    try:
        header = json.loads(blob[nl1 + 1:nl2].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointManifestError(f"header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise CheckpointManifestError("header is not a JSON object")
    for key in ("format_version", "config", "manifest", "payload_bytes"):
        if key not in header:
            raise CheckpointManifestError(f"header missing key {key!r}")
    payload = blob[nl2 + 1:]
    declared = header["payload_bytes"]
    expected = _manifest_bytes(header["manifest"])
    if declared != expected:
        raise CheckpointManifestError(
            f"manifest describes {expected} payload bytes but header declares {declared}"
        )
    if len(payload) < declared:
        raise CheckpointTruncatedError(
            f"payload has {len(payload)} bytes, header declares {declared}"
        )
    if len(payload) > declared:
        raise CheckpointManifestError(
            f"payload has {len(payload)} trailing bytes beyond the declared {declared}"
        )
    return header, payload


def load_checkpoint(path, store=None):
    """Read a checkpoint; if a store is given, install the payload into it."""
    header, payload = read_header(path)
    if store is not None:
        store.load_payload(header["manifest"], payload)
    return header, payload