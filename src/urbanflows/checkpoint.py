"""Checkpoint container: magic line, JSON header, raw float64 payload.

Layout on disk::

    URBANFLOWS-CKPT v1\n
    {json header}\n
    <payload bytes>

The magic line must be exactly ``URBANFLOWS-CKPT v1``.  The header holds
``format_version`` (the JSON integer 1), the run config, the parameter
manifest (name plus shape, lexicographic by name), the exact payload byte
count and, from the CLI, ``extra.stage``: a stage trains from the config's
``seed`` plus its stage number less one.  The reader ignores any other key,
such as the ``rng_state`` that older writers added.  The payload is every
parameter flattened C-order as little-endian float64 and concatenated in
manifest order, so a save/load round trip is bit exact.
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
MAGIC_LINE = MAGIC + b" v%d\n" % FORMAT_VERSION
# longest header line a reader takes, newline included; real headers are a
# few KB
MAX_HEADER_BYTES = 1 << 20
# the header line is read in pieces of at most this many bytes, so that a
# line at the cap is held about once, not once in pieces and again joined
_HEADER_PIECE = 1 << 16


def save_checkpoint(path, store, config_dict, extra=None):
    """Write ``store`` atomically: the magic line, the header, then each
    parameter's bytes straight from its array (``payload_arrays``), so the
    payload is never held whole in memory."""
    manifest = store.manifest()
    header = {
        "format_version": FORMAT_VERSION,
        "config": config_dict,
        "manifest": manifest,
        "payload_bytes": _manifest_bytes(manifest),
    }
    if extra:
        header["extra"] = extra
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC_LINE)
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


def _read_line(fh, most):
    """The next line of ``fh`` as a bytearray: up to its newline, or its
    first ``most`` bytes, or what is left of the file if that is less."""
    line = bytearray()
    while len(line) < most and not line.endswith(b"\n"):
        piece = fh.readline(min(most - len(line), _HEADER_PIECE))
        if not piece:
            break
        line += piece
    return line


def read_header(path):
    """Parse and validate the header, then read the payload.

    The magic line must be ``MAGIC_LINE`` byte for byte, and the header's
    ``format_version`` the JSON integer ``FORMAT_VERSION``.  Neither line is
    read past its bound: the magic line's length, and ``MAX_HEADER_BYTES``
    for the header line, which raises ``CheckpointManifestError`` when it
    reaches that bound without a newline.  The payload
    is read straight into one fresh float64 buffer, sized from the file
    (never from the header alone, so a header that declares more than the
    file holds raises before anything is allocated), and returned as a
    writable byte view of that buffer: ``len(payload)`` is its size in
    bytes.  A store opened on it (``ParameterStore.opened``), through which
    both the CLI and ``load_checkpoint`` install a payload, takes it without
    a copy.
    Returns (header, payload).
    """
    with open(path, "rb") as fh:
        magic_line = fh.readline(len(MAGIC_LINE))
        if len(magic_line) < len(MAGIC_LINE) and not magic_line.endswith(b"\n"):
            raise CheckpointTruncatedError("checkpoint ends inside the magic line")
        if magic_line != MAGIC_LINE:
            raise CheckpointVersionError(
                f"magic line {magic_line!r} is not {MAGIC_LINE!r}")
        header_line = _read_line(fh, MAX_HEADER_BYTES)
        if not header_line.endswith(b"\n"):
            if len(header_line) == MAX_HEADER_BYTES:
                raise CheckpointManifestError(
                    f"header line is longer than {MAX_HEADER_BYTES} bytes")
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
        if type(stated) is not int or stated != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"header format_version {stated!r:.40} is not the magic line's {FORMAT_VERSION}")
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
