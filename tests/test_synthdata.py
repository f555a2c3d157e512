"""Synthetic-corpus properties: guidance-controlled sparsity, archetype
rates, context features, info-vector layout, and dataset file round trips."""

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
    build_info_vector,
    empty_probability,
    SynthSample,
    generate_sample,
    info_vectors,
    make_dataset,
    poisson_rates,
    read_dataset,
    write_dataset,
)

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
            s = generate_sample(1000 + 7 * i, N, M, P, level)
            empties.append((s.config.counts.sum(axis=2) == 0).mean())
        fractions.append(float(np.mean(empties)))
    assert all(a < b for a, b in zip(fractions, fractions[1:])), fractions
    assert abs(fractions[-1] - 0.82) < 0.02
    assert abs(fractions[0] - 0.10) < 0.02


def test_sample_structure_and_determinism():
    s1 = generate_sample(77, N, M, P, 2)
    s2 = generate_sample(77, N, M, P, 2)
    assert s1 == s2
    assert s1.zones.labels.shape == (N, N)
    assert set(np.unique(s1.zones.labels)) <= set(range(M))
    # region growing covers the whole grid with every zone type present
    assert len(np.unique(s1.zones.labels)) == M
    assert s1.config.counts.shape == (N, N, P)
    assert s1.context.node_features.shape == (8, P + 2)
    s3 = generate_sample(78, N, M, P, 2)
    assert s1 != s3


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
    s = generate_sample(5, N, M, P, 3)
    e = build_info_vector(s.context, 3)
    emb = e[:, : 2 * (P + 2)]
    assert emb.shape == (1, 2 * (P + 2))
    feats = s.context.node_features
    assert np.allclose(emb[0, : P + 2], feats.mean(axis=0))
    assert np.allclose(emb[0, P + 2 :], feats.max(axis=0))
    one = e[:, 2 * (P + 2):]
    assert one.shape == (1, GUIDANCE_LEVELS)
    assert one[0, 3] == 1.0 and one.sum() == 1.0
    assert e.shape == (1, RunConfig(p=P).info_dim)
    assert RunConfig(p=P).info_dim == 19
    with pytest.raises(DataError):
        build_info_vector(s.context, 7)
    with pytest.raises(DataError):
        build_info_vector(s.context, 1.5)


def test_make_dataset_round_robin_levels():
    samples = make_dataset(12, N, M, P, seed=3)
    assert [s.green_level for s in samples] == [i % 5 for i in range(12)]
    assert len({s.id for s in samples}) == 12
    again = make_dataset(12, N, M, P, seed=3)
    assert samples == again


def _dataset_digest(samples):
    h = hashlib.sha256()
    for s in samples:
        h.update(np.array([s.id, s.green_level], dtype="<i8").tobytes())
        h.update(s.zones.labels.astype("<i8").tobytes())
        h.update(s.config.counts.astype("<i8").tobytes())
        h.update(s.context.node_features.astype("<f8").tobytes())
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


def test_dataset_file_roundtrip(tmp_path):
    samples = make_dataset(7, N, M, P, seed=9)
    path = tmp_path / "data.jsonl"
    write_dataset(path, samples, N, M, P)
    loaded, meta = read_dataset(path)
    assert meta == {"N": N, "M": M, "P": P}
    assert loaded == samples
    # byte determinism
    path2 = tmp_path / "data2.jsonl"
    write_dataset(path2, samples, N, M, P)
    assert path.read_bytes() == path2.read_bytes()


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
    write_dataset(path, [], N, M, P)
    loaded, meta = read_dataset(path)
    assert loaded == [] and meta["N"] == N
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


@pytest.mark.parametrize("n_value", ["4.7", '"4"', "true"])
def test_dataset_header_dimensions_must_be_integers(tmp_path, n_value):
    path = tmp_path / "data.jsonl"
    path.write_text('{"format_version": 1, "N": %s, "M": 2, "P": 2}\n' % n_value)
    with pytest.raises(ParseError) as info:
        read_dataset(path)
    assert info.value.line_number == 1


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
def test_synth_sample_rejects_a_non_integer_id_or_level(sample_id, level):
    """``SynthSample`` itself checks its id and level with the one level
    check; ``int()`` used to turn (0, 2.7) into level 2 and (0.9, True)
    into id 0 and level 1."""
    s = generate_sample(1, N, M, P, 2)
    with pytest.raises(DataError):
        SynthSample(sample_id, level, s.context, s.zones, s.config)


def test_synth_sample_takes_numpy_integers():
    s = generate_sample(1, N, M, P, 2)
    t = SynthSample(np.int64(7), np.int32(3), s.context, s.zones, s.config)
    assert (t.id, t.green_level) == (7, 3)
    assert type(t.id) is int and type(t.green_level) is int


def test_info_vectors_reject_levels_not_shaped_b():
    """Nested levels used to index the one-hot twice per row, giving rows
    with two ones in the guidance block."""
    feats = np.stack([generate_sample(i, N, M, P, 1).context.node_features
                      for i in range(2)])
    assert info_vectors(feats, np.array([1, 2])).shape == (2, RunConfig(n=N, m=M, p=P).info_dim)
    for bad in ([[1], [2]], [1], [1, 2, 3], 1):
        with pytest.raises(DataError, match="guidance level"):
            info_vectors(feats, bad)
    with pytest.raises(DataError, match="guidance level"):
        build_info_vector(generate_sample(0, N, M, P, 1).context, [1])
