"""Checkpoint container format: round trips and the three failure classes."""

import numpy as np
import pytest

from urbanflows import fileio
from urbanflows.checkpoint import (
    load_checkpoint,
    read_header,
    restore_rng,
    rng_state_of,
    save_checkpoint,
)
from urbanflows.errors import (
    CheckpointManifestError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from urbanflows.numerics.params import ParameterStore


def small_store(seed=3):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add("a.w", rng.normal(size=(3, 2)))
    store.add("a.b", rng.normal(size=(2,)))
    store.add("z.running_var", np.ones(2), trainable=False)
    return store


def test_round_trip_is_bit_exact(tmp_path):
    store = small_store()
    path = tmp_path / "model.ckpt"
    rng = np.random.default_rng(17)
    rng.normal(size=5)  # advance the stream before capturing
    save_checkpoint(path, store, {"n": 4, "seed": 17}, rng_state=rng_state_of(rng))

    target = small_store(seed=99)  # same structure, different values
    header, payload = load_checkpoint(path, store=target)
    assert header["config"] == {"n": 4, "seed": 17}
    for name in store.names():
        assert store[name].data.tobytes() == target[name].data.tobytes()
    # saving the restored store reproduces the file byte for byte
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(path2, target, {"n": 4, "seed": 17},
                    rng_state=header["rng_state"])
    assert path.read_bytes() == path2.read_bytes()


def test_rng_state_continues_the_stream(tmp_path):
    rng = np.random.default_rng(5)
    rng.normal(size=7)
    state = rng_state_of(rng)
    expected = rng.normal(size=4)

    resumed = restore_rng(state)
    np.testing.assert_array_equal(resumed.normal(size=4), expected)

    # and the state survives a JSON round trip inside the header
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {}, rng_state=state)
    header, _ = read_header(path)
    resumed2 = restore_rng(header["rng_state"])
    np.testing.assert_array_equal(resumed2.normal(size=4), expected)


def test_truncated_payload(tmp_path):
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointTruncatedError):
        read_header(path)


def test_missing_header_line(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"URBANFLOWS-CKPT v1\n")
    with pytest.raises(CheckpointTruncatedError):
        read_header(path)


@pytest.mark.parametrize("magic", [b"PICKLE v1\n", b"URBANFLOWS-CKPT v9\n",
                                   b"URBANFLOWS-CKPT vx\n"])
def test_bad_magic_or_version(tmp_path, magic):
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})
    blob = path.read_bytes()
    rest = blob[blob.find(b"\n") + 1:]
    path.write_bytes(magic + rest)
    with pytest.raises(CheckpointVersionError):
        read_header(path)


def test_manifest_mismatches(tmp_path):
    store = small_store()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {})

    other = ParameterStore()
    other.add("a.w", np.zeros((4, 4)))
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
        # header goes out, then the payload write fails part way through
        monkeypatch.setattr(store, "to_payload", lambda: "not bytes")
        expected = TypeError
    else:
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        save_checkpoint(path, store, {"seed": 2})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
