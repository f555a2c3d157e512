"""Synthetic-corpus properties: guidance-controlled sparsity, archetype
rates, context features, info-vector layout, and dataset file round trips."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from urbanflows.errors import (
    ConfigurationError,
    DataError,
    FormatError,
    ParseError,
)
from urbanflows.runconfig import GUIDANCE_LEVELS, RunConfig
from urbanflows.synthdata import (
    ARCHETYPE_NAMES,
    CATEGORY_NAMES,
    TOTAL_POI_RATE,
    Dataset,
    empty_probability,
    generate_sample,
    info_vectors,
    make_dataset,
    poisson_rates,
    read_dataset,
    write_dataset,
)

from conftest import assert_same_dataset

N, M, P = 8, 4, 5


def test_empty_probability_table():
    # 0.10 + 0.18 * level
    expect = [0.10, 0.28, 0.46, 0.64, 0.82]
    for level, want in enumerate(expect):
        assert abs(empty_probability(level) - want) < 1e-12


def test_poisson_rates_normalized_per_archetype():
    lam = poisson_rates(M, P)
    assert lam.shape == (M, P)
    assert np.all(lam > 0)
    for row in lam:
        assert abs(row.sum() - TOTAL_POI_RATE) < 1e-9
    # more zone types than archetypes cycle through the table
    lam8 = poisson_rates(8, P)
    assert np.allclose(lam8[4:], lam8[:4])


def test_category_table_shapes():
    assert len(CATEGORY_NAMES) == 20
    assert len(set(CATEGORY_NAMES)) == 20
    assert len(ARCHETYPE_NAMES) == 4


def test_realized_empty_fraction_tracks_guidance():
    fractions = []
    for level in range(GUIDANCE_LEVELS):
        empties = []
        for i in range(400):
            counts = generate_sample(1000 + 7 * i, N, M, P, level)[2]
            empties.append((counts.sum(axis=2) == 0).mean())
        fractions.append(float(np.mean(empties)))
    assert all(a < b for a, b in zip(fractions, fractions[1:])), fractions
    assert abs(fractions[-1] - 0.82) < 0.02
    assert abs(fractions[0] - 0.10) < 0.02


def test_sample_structure_and_determinism():
    s1 = generate_sample(77, N, M, P, 2)
    s2 = generate_sample(77, N, M, P, 2)
    assert all(np.array_equal(a, b) for a, b in zip(s1, s2))
    context, zones, counts = s1
    assert zones.shape == (N, N)
    assert set(np.unique(zones)) <= set(range(M))
    # region growing covers the whole grid with every zone type present
    assert len(np.unique(zones)) == M
    assert counts.shape == (N, N, P)
    assert context.shape == (8, P + 2)
    s3 = generate_sample(78, N, M, P, 2)
    assert not all(np.array_equal(a, b) for a, b in zip(s1, s3))


def test_generate_sample_validation():
    with pytest.raises(ConfigurationError):
        generate_sample(0, N, M, P, 5)
    with pytest.raises(ConfigurationError):
        generate_sample(0, 3, M, P, 0)
    with pytest.raises(ConfigurationError):
        generate_sample(0, N, 1, P, 0)
    with pytest.raises(ConfigurationError):
        generate_sample(0, N, M, 1, 0)


def test_context_embedding_and_info_vector():
    feats = generate_sample(5, N, M, P, 3)[0]
    e = info_vectors(feats[None], [3])
    emb = e[:, : 2 * (P + 2)]
    assert emb.shape == (1, 2 * (P + 2))
    assert np.allclose(emb[0, : P + 2], feats.mean(axis=0))
    assert np.allclose(emb[0, P + 2 :], feats.max(axis=0))
    one = e[:, 2 * (P + 2):]
    assert one.shape == (1, GUIDANCE_LEVELS)
    assert one[0, 3] == 1.0 and one.sum() == 1.0
    assert e.shape == (1, RunConfig(p=P).info_dim)
    assert RunConfig(p=P).info_dim == 19
    with pytest.raises(DataError):
        info_vectors(feats[None], [7])
    with pytest.raises(DataError):
        info_vectors(feats[None], [1.5])


def test_make_dataset_round_robin_levels():
    ds = make_dataset(12, N, M, P, seed=3)
    assert ds.levels.tolist() == [i % 5 for i in range(12)]
    assert len(set(ds.ids.tolist())) == 12
    assert ds.ids.dtype == np.int64 and ds.levels.dtype == np.int64
    assert (ds.context.shape, ds.zones.shape, ds.counts.shape) == (
        (12, 8, P + 2), (12, N, N), (12, N, N, P))
    again = make_dataset(12, N, M, P, seed=3)
    assert_same_dataset(ds, again)
    # each row is its seed's ``generate_sample`` draw
    for i in (0, 7):
        draw = generate_sample(3 * 1_000_003 + i, N, M, P, i % 5)
        for got, want in zip((ds.context[i], ds.zones[i], ds.counts[i]), draw):
            assert np.array_equal(got, want)


def test_dataset_rows_are_read_only_views():
    ds = make_dataset(10, N, M, P, seed=3)
    assert len(ds) == 10 and len(make_dataset(0, N, M, P, seed=3)) == 0
    head = ds[:4]
    assert isinstance(head, Dataset) and len(head) == 4
    for field in dataclasses.fields(Dataset):
        whole, part = getattr(ds, field.name), getattr(head, field.name)
        assert np.shares_memory(whole, part), field.name
        assert np.array_equal(part, whole[:4]), field.name
        with pytest.raises(ValueError, match="read-only"):
            whole[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.levels = ds.levels
    picked = ds[np.array([3, 1])]
    assert picked.ids.tolist() == [ds.ids[3], ds.ids[1]]
    assert np.array_equal(picked.counts, ds.counts[[3, 1]])


def _dataset_digest(ds):
    h = hashlib.sha256()
    for row in range(len(ds)):
        h.update(np.array([ds.ids[row], ds.levels[row]], dtype="<i8").tobytes())
        h.update(ds.zones[row].astype("<i8").tobytes())
        h.update(ds.counts[row].astype("<i8").tobytes())
        h.update(ds.context[row].astype("<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("args,digest", [
    ((60, 8, 4, 5, 0), "920181d6b1e280e8a16c1d266ac8872763a7ecd4dd70729d8df999aa0e2b3d4c"),
    ((60, 8, 4, 5, 1101), "ffcb01b3df8d36c7b98ef7233073396dac1cda0df4b94950e44e9ad92966d334"),
    ((40, 5, 3, 4, 7), "30c5e3105066c7798618345a0eca95583908e5da95fca94d41170cb67420d8ba"),
])
def test_make_dataset_output_is_pinned(args, digest):
    """Every sample, byte for byte, as synthesized before the zone growing
    moved from numpy scalar indexing to a flat list: same draws, same order."""
    assert _dataset_digest(make_dataset(*args)) == digest


def test_dataset_file_is_pinned(tmp_path):
    """The bytes ``write_dataset`` writes, pinned by sha256: the file
    format did not change when samples became rows of stacked arrays."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(60, 8, 4, 5, 0), 8, 4, 5)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e870385eb463a0a0399077557382945eedf3c88f8d056ce4350b71fa2b409558")


def test_dataset_file_roundtrip(tmp_path):
    ds = make_dataset(7, N, M, P, seed=9)
    path = tmp_path / "data.jsonl"
    write_dataset(path, ds, N, M, P)
    loaded, meta = read_dataset(path)
    assert meta == {"N": N, "M": M, "P": P}
    assert_same_dataset(loaded, ds)
    # byte determinism
    path2 = tmp_path / "data2.jsonl"
    write_dataset(path2, ds, N, M, P)
    assert path.read_bytes() == path2.read_bytes()
    write_dataset(path2, loaded, N, M, P)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("ids", [[2 ** 70, 5], [2 ** 63, -1], [-(2 ** 64), 0]])
def test_dataset_ids_beyond_int64_round_trip(tmp_path, ids):
    """A record id is any JSON integer: ids past int64 load as Python ints,
    not as floats (NumPy's pick for a mix of 2**63 and -1), and are
    written back as the same integers."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(2, N, M, P, seed=1), N, M, P)
    lines = path.read_text().splitlines()
    for line_no, sample_id in zip((1, 2), ids):
        rec = json.loads(lines[line_no])
        rec["id"] = sample_id
        lines[line_no] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    loaded, _ = read_dataset(path)
    assert loaded.ids.tolist() == ids
    assert all(type(i) is int for i in loaded.ids.tolist())
    again = tmp_path / "again.jsonl"
    write_dataset(again, loaded, N, M, P)
    assert again.read_bytes() == path.read_bytes()
    # a dataset synthesized from a seed past int64 / 1_000_003 has such ids
    big = make_dataset(3, N, M, P, seed=10 ** 20)
    assert big.ids.tolist() == [10 ** 20 * 1_000_003 + i for i in range(3)]


def test_failed_dataset_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(3, N, M, P, seed=1), N, M, P)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_dataset(path, make_dataset(5, N, M, P, seed=2), N, M, P)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


def test_dataset_empty_file_and_header_only(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset(path, make_dataset(0, N, M, P, seed=0), N, M, P)
    assert len(path.read_text().splitlines()) == 1
    loaded, meta = read_dataset(path)
    assert len(loaded) == 0 and meta["N"] == N
    assert (loaded.context.shape, loaded.zones.shape, loaded.counts.shape) == (
        (0, 8, P + 2), (0, N, N), (0, N, N, P))
    path.write_text("")
    with pytest.raises(ParseError):
        read_dataset(path)


def test_dataset_parse_errors_carry_line_numbers(tmp_path):
    samples = make_dataset(3, N, M, P, seed=1)
    path = tmp_path / "data.jsonl"
    write_dataset(path, samples, N, M, P)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]   # truncate a record mid-JSON
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        read_dataset(path)
    assert info.value.line_number == 3


@pytest.mark.parametrize("extra", [1, -1])
def test_dataset_context_rows_must_have_p_plus_2_entries(tmp_path, extra):
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(3, N, M, P, seed=1), N, M, P)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["context"] = [row + [0.5] if extra > 0 else row[:-1] for row in rec["context"]]
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="P \\+ 2 = 7") as info:
        read_dataset(path)
    assert info.value.line_number == 3


def _context_entry(value):
    """An edit that sets entry (4, 1) of a record's context to ``value``."""
    return lambda context: [row[:1] + [value] + row[2:] if i == 4 else row
                            for i, row in enumerate(context)]


@pytest.mark.parametrize("edit", [
    _context_entry("0.5"), _context_entry("1e3"), _context_entry(True), _context_entry(False),
    _context_entry(None), _context_entry([0.5]), _context_entry({"a": 0.5}),
    lambda context: 0.5, lambda context: "ctx", lambda context: {"n": context[0]},
    lambda context: [row[0] for row in context], lambda context: context[:7] + ["ctx"],
], ids=["string", "string-exp", "true", "false", "null", "list", "object",
        "number-context", "string-context", "object-context", "flat-context", "string-row"])
def test_dataset_context_must_be_rows_of_json_numbers(tmp_path, edit):
    """A context entry is a JSON int or float: a string or a boolean used to
    load as its float value ("0.5" as 0.5, true as 1.0)."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(3, N, M, P, seed=1), N, M, P)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["context"] = edit(rec["context"])
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="context must be a list of rows of JSON numbers") as info:
        read_dataset(path)
    assert info.value.line_number == 3


def test_dataset_context_takes_json_integers(tmp_path):
    """An integer context entry loads as its float value."""
    ds = make_dataset(3, N, M, P, seed=1)
    path = tmp_path / "data.jsonl"
    write_dataset(path, ds, N, M, P)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["context"] = _context_entry(3)(rec["context"])
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    loaded, _ = read_dataset(path)
    assert loaded.context[1, 4, 1] == 3.0
    rows = np.array([0, 2])
    assert_same_dataset(loaded[rows], ds[rows])


@pytest.mark.parametrize("dims", [("4.7", 2, 2), ('"4"', 2, 2), ("true", 2, 2),
                                  (1, 2, 2), (0, 2, 2), (-4, 2, 2), (4, 0, 2), (4, 2, 0),
                                  (4, 2, -1), (2 ** 40, 2, 2), (4, 2, 10 ** 30)],
                         ids=["4.7", '"4"', "true", "n-1", "n-0", "n-negative", "m-0", "p-0",
                              "p-negative", "n-huge", "p-huge"])
def test_dataset_header_dimensions_must_be_integers(tmp_path, dims):
    """N, M and P are integers, N >= 2 and M, P >= 1, small enough to shape
    an array; the empty dataset of a header-only file is shaped from them."""
    path = tmp_path / "data.jsonl"
    path.write_text('{"format_version": 1, "N": %s, "M": %s, "P": %s}\n' % dims)
    with pytest.raises(ParseError, match="header dimensions") as info:
        read_dataset(path)
    assert info.value.line_number == 1


@pytest.mark.parametrize("edit,message", [
    (lambda rec: rec["zones"].__setitem__(3, -1), "zone labels must lie in \\[0, 3\\]"),
    (lambda rec: rec["zones"].__setitem__(3, 4), "zone labels must lie in \\[0, 3\\]"),
    (lambda rec: rec["config"].__setitem__(7, -2), "POI counts must be nonnegative"),
    (lambda rec: rec["config"].__setitem__(7, 2 ** 64), "too large"),
    (lambda rec: rec["zones"].pop(), "reshape"),
    (lambda rec: rec["config"].append(0), "reshape"),
    (lambda rec: rec["context"].pop(), "8 rows of P \\+ 2 = 7"),
    (lambda rec: rec["context"].append([0.0] * 7), "8 rows of P \\+ 2 = 7"),
    (lambda rec: rec.pop("id"), "'id'"),
    (lambda rec: rec.pop("config"), "'config'"),
], ids=["label-negative", "label-past-m", "count-negative", "count-past-int64",
        "zones-short", "config-long", "seven-nodes", "nine-nodes", "no-id", "no-config"])
def test_dataset_record_checks(tmp_path, edit, message):
    """A record with a zone label outside [0, M - 1], a negative or
    oversized count, the wrong number of labels, counts or context rows, or
    a missing key is a bad record naming its line."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(3, N, M, P, seed=1), N, M, P)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    edit(rec)
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="bad record: .*" + message) as info:
        read_dataset(path)
    assert info.value.line_number == 3


def test_dataset_version_check(tmp_path):
    """The version is the JSON integer 1: ``true`` and ``1.0`` compare equal
    to 1 but are refused too."""
    samples = make_dataset(2, N, M, P, seed=1)
    path = tmp_path / "data.jsonl"
    write_dataset(path, samples, N, M, P)
    text = path.read_text()
    for stated in ["99", "true", "1.0", '"1"', "null", "[1]", "0"]:
        path.write_text(text.replace('"format_version": 1', f'"format_version": {stated}'))
        with pytest.raises(FormatError, match="unsupported dataset version"):
            read_dataset(path)

@pytest.mark.parametrize("key,value", [
    ("green_level", 2.7), ("green_level", True), ("green_level", "2"),
    ("green_level", 5), ("green_level", -1), ("green_level", [2]),
    ("green_level", 10 ** 30), ("id", 2.5), ("id", True), ("id", "3"),
])
def test_dataset_id_and_level_must_be_json_integers(tmp_path, key, value):
    """A non-integer id or level used to be truncated by ``int()`` (2.7
    trained as level 2, true as level 1); a level past 4 failed only later."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(3, N, M, P, seed=1), N, M, P)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec[key] = value
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="bad record: ") as info:
        read_dataset(path)
    assert info.value.line_number == 3
    if key == "id":
        assert "id must be an integer" in str(info.value)
    else:
        assert "guidance level" in str(info.value)
        if value != [2]:   # a one-level list has the wrong shape, not a wrong value
            assert "out of range" in str(info.value)


@pytest.mark.parametrize("sample_id,level", [
    (0, 2.7), (0.9, True), (0, True), (0, [2]), (0, 5), (0, "2"), (0, None),
    (True, 1), ("3", 1), (2.0, 1),
])
def test_synth_sample_rejects_a_non_integer_id_or_level(tmp_path, sample_id, level):
    """A record's id must be an integer and its level pass the one level
    check (a ``SynthSample`` constructor check before samples became
    dataset rows); ``int()`` used to turn (0, 2.7) into level 2 and
    (0.9, True) into id 0 and level 1."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, make_dataset(3, N, M, P, seed=1), N, M, P)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["id"], rec["green_level"] = sample_id, level
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="bad record: ") as info:
        read_dataset(path)
    assert info.value.line_number == 3


def test_synth_sample_takes_numpy_integers(tmp_path):
    """NumPy integer ids and levels of any width are written as plain JSON
    integers and read back, and a draw takes a NumPy seed and level."""
    ds = make_dataset(2, N, M, P, seed=1)
    ds = dataclasses.replace(ds, ids=np.array([7, 8], dtype=np.int32),
                             levels=np.array([3, 1], dtype=np.uint8))
    path = tmp_path / "data.jsonl"
    write_dataset(path, ds, N, M, P)
    loaded, _ = read_dataset(path)
    assert loaded.ids.tolist() == [7, 8] and loaded.levels.tolist() == [3, 1]
    assert '"id": 7' in path.read_text() and '"green_level": 3' in path.read_text()
    draws = generate_sample(np.int64(7), N, M, P, np.int32(3)), generate_sample(7, N, M, P, 3)
    assert all(np.array_equal(a, b) for a, b in zip(*draws))


def test_info_vectors_reject_levels_not_shaped_b():
    """Nested levels used to index the one-hot twice per row, giving rows
    with two ones in the guidance block."""
    feats = make_dataset(2, N, M, P, seed=0).context
    assert info_vectors(feats, np.array([1, 2])).shape == (2, RunConfig(n=N, m=M, p=P).info_dim)
    for bad in ([[1], [2]], [1], [1, 2, 3], 1):
        with pytest.raises(DataError, match="guidance level"):
            info_vectors(feats, bad)
    with pytest.raises(DataError, match="guidance level"):
        info_vectors(feats[:1], [[1]])
