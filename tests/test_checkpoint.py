"""Checkpoint container format: round trips and the three failure classes."""

import json
import tracemalloc

import numpy as np
import pytest

from urbanflows import fileio
from urbanflows.checkpoint import (
    MAGIC,
    MAGIC_LINE,
    MAX_HEADER_BYTES,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from urbanflows.errors import (
    CheckpointManifestError,
    CheckpointTruncatedError,
    CheckpointValueError,
    CheckpointVersionError,
)
from urbanflows.numerics.params import ParameterStore
from urbanflows.pipeline import ModelBundle
from urbanflows.runconfig import RunConfig

from conftest import add_param


def small_store(seed=3):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    add_param(store, "a.w", rng.normal(size=(3, 2)))
    add_param(store, "a.b", rng.normal(size=(2,)))
    add_param(store, "z.running_var", np.ones(2), trainable=False)
    return store


def test_round_trip_is_bit_exact(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, {"n": 4, "seed": 17})

    target = small_store(seed=99)  # same structure, different values
    header, payload = load_checkpoint(path, store=target)
    assert header["config"] == {"n": 4, "seed": 17}
    for name in store.names():
        assert store[name].data.tobytes() == target[name].data.tobytes()
    # saving the restored store reproduces the file byte for byte
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, target, {"n": 4, "seed": 17})
    assert path.read_bytes() == path2.read_bytes()


def _declare_huge(header):
    # 10^15 bytes: reading into a buffer of that size would fail untyped
    header["manifest"] = [["a.b", [125_000_000_000_000]]]
    header["payload_bytes"] = 10 ** 15


def test_truncated_payload(tmp_path, rewrite_header):
    """A file that holds less payload than its header declares raises a
    typed error, and no buffer of the declared size is allocated."""
    cases = [
        (5, None, CheckpointTruncatedError),
        (0, _declare_huge, CheckpointTruncatedError),
        (0, lambda header: header.update(payload_bytes=10 ** 15), CheckpointManifestError),
    ]
    for cut, declare, error in cases:
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, small_store(), {})
        if declare is not None:
            rewrite_header(path, declare)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - cut])
        with pytest.raises(error):
            read_header(path)
        with pytest.raises(error):
            load_checkpoint(path, store=small_store())


def test_loaded_parameters_are_views_of_one_buffer(tmp_path):
    """``load_checkpoint`` reads the payload into one float64 buffer and
    makes every parameter a writable, C-contiguous view of it, in manifest
    order; a store opened on immutable payload bytes copies them once."""
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})
    blob = path.read_bytes()
    payload_size = 8 * sum(t.size for _, t in store.items())
    file_values = np.frombuffer(blob, dtype="<f8", offset=len(blob) - payload_size)

    target = small_store(seed=99)
    _, payload = load_checkpoint(path, store=target)
    assert isinstance(payload, memoryview) and len(payload) == payload_size
    buffer = np.frombuffer(payload, dtype=np.float64)
    offset = 0
    for name in target.names():
        arr = target[name].data
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert np.array_equal(arr.ravel(), file_values[offset:offset + arr.size])
        assert np.shares_memory(arr, buffer[offset:offset + arr.size])
        offset += arr.size
    tensors = [t for _, t in target.items()]
    for a, b in zip(tensors, tensors[1:]):
        assert not np.shares_memory(a.data, b.data)

    # bytes cannot be written through, so they are copied, once
    caller = bytes(payload)
    other = ParameterStore.opened(target.manifest(), caller)
    for name, t in target.items():
        other.param(name, t.shape, trainable=t.requires_grad)
    other.check_complete()
    caller_values = np.frombuffer(caller, dtype="<f8")
    bases = {id(t.data.base) for _, t in other.items()}
    assert len(bases) == 1
    for name in other.names():
        arr = other[name].data
        assert arr.flags.writeable and not np.shares_memory(arr, caller_values)
        assert np.array_equal(arr, target[name].data)


@pytest.mark.parametrize("bad", ["nan", "variance", "manifest", "extra", "short"])
def test_failed_load_payload_changes_no_parameter(tmp_path, bad):
    """A load that raises leaves every parameter's array and values as they
    were: at a value check, at a tensor the payload lacks, at an entry no
    tensor claims, or in ``read_header``."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small_store(), {})
    header, payload = read_header(path)
    values = np.frombuffer(payload, dtype="<f8")
    if bad == "nan":
        values[3] = np.nan
    elif bad == "variance":
        values[-1] = -1.0
    elif bad == "manifest":  # "a.b" dropped with its two values
        header["manifest"] = [entry for entry in header["manifest"] if entry[0] != "a.b"]
        values = values[2:]
    elif bad == "extra":
        header["manifest"].append(["zz.extra", [1]])
        values = np.append(values, 0.5)
    header["payload_bytes"] = values.nbytes
    blob = MAGIC + b" v1\n" + json.dumps(header).encode() + b"\n" + values.tobytes()
    path.write_bytes(blob[:-8] if bad == "short" else blob)

    target = small_store(seed=99)
    before = {name: t.data for name, t in target.items()}
    snap = target.snapshot()
    error = {"nan": CheckpointValueError, "variance": CheckpointValueError,
             "short": CheckpointTruncatedError}.get(bad, CheckpointManifestError)
    with pytest.raises(error):
        load_checkpoint(path, store=target)
    for name, t in target.items():
        assert t.data is before[name]
        assert np.array_equal(t.data, snap[name])


def test_missing_header_line(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"URBANFLOWS-CKPT v1\n")
    with pytest.raises(CheckpointTruncatedError):
        read_header(path)


@pytest.mark.parametrize("magic", [b"PICKLE v1\n", b"URBANFLOWS-CKPT v9\n",
                                   b"URBANFLOWS-CKPT vx\n", b"URBANFLOWS-CKPT v+1\n",
                                   b"URBANFLOWS-CKPT v01\n", b"URBANFLOWS-CKPT v 1\n",
                                   b"URBANFLOWS-CKPT v1 \n", b"URBANFLOWS-CKPT v1\r\n"])
def test_bad_magic_or_version(tmp_path, magic):
    """The magic line is ``URBANFLOWS-CKPT v1`` byte for byte: a sign, a
    leading zero or a space or carriage return around the version, which
    ``int()`` reads as 1, is refused too."""
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})
    blob = path.read_bytes()
    rest = blob[blob.find(b"\n") + 1:]
    path.write_bytes(magic + rest)
    with pytest.raises(CheckpointVersionError):
        read_header(path)


@pytest.mark.parametrize("blob", [b"", b"URBANFLOWS", MAGIC_LINE[:-1]])
def test_file_ending_inside_the_magic_line(tmp_path, blob):
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointTruncatedError, match="magic line"):
        read_header(path)


def test_header_line_is_capped(tmp_path):
    """A header line of ``MAX_HEADER_BYTES``, its newline included, is
    read; one byte more is refused with a typed error, not read on."""
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})
    blob = path.read_bytes()
    head_end = blob.index(b"\n", len(MAGIC_LINE))
    header, payload = blob[len(MAGIC_LINE):head_end], blob[head_end + 1:]
    pad = MAX_HEADER_BYTES - 1 - len(header)
    path.write_bytes(MAGIC_LINE + header + b" " * pad + b"\n" + payload)
    assert read_header(path)[0] == json.loads(header)
    path.write_bytes(MAGIC_LINE + header + b" " * (pad + 1) + b"\n" + payload)
    with pytest.raises(CheckpointManifestError, match="longer than"):
        read_header(path)


@pytest.mark.parametrize("head,error", [(b"", CheckpointVersionError),
                                        (MAGIC_LINE, CheckpointManifestError)],
                         ids=["no-newline", "endless-header"])
def test_endless_lines_are_refused_in_bounded_memory(tmp_path, head, error):
    """A 64 MiB file with no newline, and a magic line followed by 64 MiB
    of ``{``, are each refused with a typed error after a bounded read:
    the traced peak stays under 2 MiB."""
    path = tmp_path / "m.ckpt"
    chunk = b"{" * (1 << 20)
    with open(path, "wb") as fh:
        fh.write(head)
        for _ in range(64):
            fh.write(chunk)
    del chunk
    tracemalloc.start()
    try:
        with pytest.raises(error):
            read_header(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, f"traced peak {peak}"


@pytest.mark.parametrize("stated", [7, 2, 0, "one", "1", None, [1], True, 1.0])
def test_header_format_version_must_be_the_magic_lines(tmp_path, rewrite_header, stated):
    """Under a ``v1`` magic line the header's ``format_version`` must be the
    JSON integer 1: not another number, a string, null, a list, ``true``
    or ``1.0``."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small_store(), {})
    rewrite_header(path, lambda header: header.update(format_version=stated))
    with pytest.raises(CheckpointVersionError, match="format_version"):
        read_header(path)
    target = small_store(seed=99)
    snap = target.snapshot()
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path, store=target)
    for name, t in target.items():
        assert np.array_equal(t.data, snap[name])


def test_manifest_mismatches(tmp_path):
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})

    other = ParameterStore()
    add_param(other, "a.w", np.zeros((4, 4)))
    with pytest.raises(CheckpointManifestError):
        load_checkpoint(path, store=other)

    # header JSON garbled in place
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    path.write_bytes(blob[:nl + 1] + b"{not json" + blob[nl + 10:])
    with pytest.raises(CheckpointManifestError):
        read_header(path)

    # trailing junk beyond the declared payload
    save_checkpoint(path, store, {})
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointManifestError):
        read_header(path)

@pytest.mark.parametrize("shape", ["ab", [-1, 2], [2.5], [True, 2], None])
def test_malformed_manifest_shape(tmp_path, rewrite_header, shape):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small_store(), {})

    def edit(header):
        header["manifest"][0][1] = shape

    rewrite_header(path, edit)
    with pytest.raises(CheckpointManifestError):
        read_header(path)


def test_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"URBANFLOWS-CKPT v1\n7\n")
    with pytest.raises(CheckpointManifestError):
        read_header(path)


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_save_keeps_old_checkpoint(tmp_path, monkeypatch, failure):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, small_store(), {"seed": 1})
    before = path.read_bytes()

    store = small_store(seed=8)
    if failure == "write":
        # the header and the first parameters go out, then the write of the
        # last one fails part way through the payload
        monkeypatch.setattr(store["z.running_var"], "data", np.array(["not", "floats"]))
        expected = ValueError
    else:
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        save_checkpoint(path, store, {"seed": 2})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_save_streams_the_payload(tmp_path):
    """A default-size save writes each parameter from its own array: its
    traced peak stays below a quarter of the payload it writes, and the
    file ends in the bytes of ``payload_arrays``, joined."""
    store = ModelBundle(RunConfig().validate()).store
    path = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(path, store, {"seed": 0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header, payload = read_header(path)
    assert header["payload_bytes"] == len(payload) > 4_000_000
    assert peak < len(payload) / 4, f"traced peak {peak} of a {len(payload)}-byte payload"
    assert bytes(payload) == b"".join(store.payload_arrays())
