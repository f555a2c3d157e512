"""Property fuzz of every file reader: checkpoint headers, dataset header
and record lines, and config files; of the model build from a parsed
config; a table of ``--set`` values run through every CLI stage; and the
structure of the CLI's argv.

Each input, however malformed, must either parse or raise an
``UrbanFlowsError``; anything else would leave the CLI as a Python
traceback.  Inputs start from a valid file and replace one part with
arbitrary JSON or bytes, so the fuzz reaches past the first check.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanflows.checkpoint import MAGIC, load_checkpoint, read_header, save_checkpoint
from urbanflows.cli import main
from urbanflows.errors import UrbanFlowsError
from urbanflows.numerics import ParameterStore
from urbanflows.pipeline import ModelBundle
from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import make_dataset, read_dataset, write_dataset

from conftest import add_param, mini_runconfig, tiny_set_args

FUZZ = settings(database=None, deadline=None, max_examples=150)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# a line of text with no line break in it
lines = st.text(max_size=40).map(lambda t: "".join(t.splitlines()))


def parses_or_raises_typed(fn, *args):
    try:
        fn(*args)
    except UrbanFlowsError:
        pass


def _store():
    store = ParameterStore()
    add_param(store, "a.w", np.arange(6.0).reshape(2, 3))
    add_param(store, "b.stat", np.ones(2), trainable=False)
    return store


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_checkpoint(workdir):
    """(header JSON text, payload) of a valid checkpoint of ``_store()``."""
    path = workdir / "valid.ckpt"
    save_checkpoint(path, _store(), mini_runconfig().as_dict())
    blob = path.read_bytes()
    nl1 = blob.find(b"\n")
    nl2 = blob.find(b"\n", nl1 + 1)
    return blob[nl1 + 1:nl2].decode(), blob[nl2 + 1:]


def _load_checkpoint(path):
    """The checkpoint half of model loading, without building a model of
    the (fuzzed) configured size: the header's config coerced as the CLI
    coerces it, and the payload installed into ``_store()`` by
    ``load_checkpoint``, whose store opened on the payload, registration
    and ``check_complete`` are the CLI's install."""
    header, _ = read_header(path)
    parses_or_raises_typed(RunConfig.from_sources, None, dict(header["config"]))
    load_checkpoint(path, _store())


header_edits = st.one_of(
    st.tuples(st.sampled_from(["format_version", "config", "manifest",
                               "payload_bytes", "rng_state"]), json_values),
    st.tuples(st.just("config"),
              st.dictionaries(st.sampled_from(sorted(mini_runconfig().as_dict())),
                              json_values, min_size=1, max_size=3)),
    st.tuples(st.just("manifest"),
              st.lists(st.tuples(st.sampled_from(["a.w", "b.stat", "c"]),
                                 st.lists(st.integers(-1, 4), max_size=3)),
                       max_size=3)),
)


@FUZZ
@given(edit=header_edits, drop=st.booleans())
def test_fuzz_checkpoint_header_fields(workdir, valid_checkpoint, edit, drop):
    header, payload = json.loads(valid_checkpoint[0]), valid_checkpoint[1]
    key, value = edit
    if drop:
        header.pop(key, None)
    elif key == "config" and isinstance(value, dict):
        header["config"].update(value)
    else:
        header[key] = json.loads(json.dumps(value))
    path = workdir / "f.ckpt"
    path.write_bytes(MAGIC + b" v1\n" + json.dumps(header).encode() + b"\n" + payload)
    parses_or_raises_typed(_load_checkpoint, path)


@FUZZ
@given(head=st.binary(max_size=60), tail=st.binary(max_size=60))
def test_fuzz_checkpoint_header_bytes(workdir, head, tail):
    path = workdir / "f.ckpt"
    path.write_bytes(MAGIC + b" v1\n" + head + b"\n" + tail)
    parses_or_raises_typed(_load_checkpoint, path)


@pytest.fixture(scope="module")
def valid_dataset(workdir):
    """The lines of a valid two-sample dataset: a header and two records."""
    rc = mini_runconfig()
    path = workdir / "valid.jsonl"
    write_dataset(path, make_dataset(2, rc.n, rc.m, rc.p, seed=0), rc.n, rc.m, rc.p)
    return path.read_text().splitlines()


@FUZZ
@given(line=st.integers(0, 2), key=st.sampled_from(
    ["format_version", "N", "M", "P", "id", "green_level", "context", "zones", "config"]),
    value=json_values, whole=st.booleans())
def test_fuzz_dataset_fields(workdir, valid_dataset, line, key, value, whole):
    records = [json.loads(r) for r in valid_dataset]
    records[line] = value if whole else {**records[line], key: value}
    path = workdir / "f.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    parses_or_raises_typed(read_dataset, path)


@FUZZ
@given(line=st.integers(0, 2), raw=st.one_of(lines.map(str.encode), st.binary(max_size=40)))
def test_fuzz_dataset_raw_lines(workdir, valid_dataset, line, raw):
    records = [r.encode() for r in valid_dataset]
    records[line] = raw
    path = workdir / "f.jsonl"
    path.write_bytes(b"\n".join(records) + b"\n")
    parses_or_raises_typed(read_dataset, path)


config_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(mini_runconfig().as_dict())), lines)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    lines,
)


@FUZZ
@given(text=st.lists(config_lines, max_size=5), junk=st.binary(max_size=8))
def test_fuzz_config_file(workdir, text, junk):
    path = workdir / "f.cfg"
    path.write_bytes("\n".join(text).encode() + b"\n" + junk)
    parses_or_raises_typed(RunConfig.from_sources, path)


int_fields = sorted(f.name for f in dataclasses.fields(RunConfig) if type(f.default) is int)
model_config_edits = st.one_of(
    st.tuples(st.sampled_from(int_fields), st.integers(-3, 9)),
    st.tuples(st.sampled_from(["zone_hidden", "config_hidden"]),
              st.lists(st.integers(-3, 9), max_size=2).map(tuple)),
)


@FUZZ
@given(edit=model_config_edits)
def test_fuzz_model_config_values(edit):
    """A well-typed config value that parsing lets through either builds a
    model or is rejected by ``validate``."""
    key, value = edit
    rc = dataclasses.replace(mini_runconfig(), **{key: value})
    parses_or_raises_typed(lambda: ModelBundle(rc.validate()))


SET_TOKENS = ["", "0", "-1", "1", "x", "1,,1", "nan", "inf", "1e300", "true"]


@pytest.fixture(scope="module")
def tiny_dataset(workdir):
    path = str(workdir / "tiny.jsonl")
    assert main(["synth", "--count", "12", "--out", path, *tiny_set_args()]) == 0
    return path


@pytest.mark.parametrize("token", SET_TOKENS)
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
def test_set_table_runs_every_stage_or_fails_typed(tmp_path, capsys, tiny_dataset, key, token):
    """``--set key=token`` on the tiny geometry through both training
    stages (one step each), ``generate`` and ``evaluate``: every command
    exits 0, or 1 with an ``error:`` line, and no ``RuntimeWarning`` (an
    error in this suite) or other exception escapes.  Each case has a
    directory of its own, so a failed stage leaves no earlier case's
    checkpoint for the next one to read."""
    override = tiny_set_args(**{"steps_zone": 1, "steps_config": 1, key: token})
    zone, model = str(tmp_path / "zone.ckpt"), str(tmp_path / "model.ckpt")
    for argv in (["train-zone", "--dataset", tiny_dataset, "--out-ckpt", zone],
                 ["train-config", "--dataset", tiny_dataset, "--zone-ckpt", zone,
                  "--out-ckpt", model],
                 ["generate", "--ckpt", model, "--green-level", "1", "--count", "2",
                  "--out-dir", str(tmp_path / "gen")],
                 ["evaluate", "--ckpt", model, "--dataset", tiny_dataset,
                  "--out", str(tmp_path / "report.txt")]):
        capsys.readouterr()
        code = main([*argv, *override])
        assert code in (0, 1), argv[0]
        if code == 1:
            assert any(line.startswith("error:")
                       for line in capsys.readouterr().err.splitlines()), argv[0]


@pytest.fixture(scope="module")
def argv_inputs(workdir, tiny_dataset):
    """Input paths the argv fuzz draws from: the tiny dataset, a tiny config
    file (one step per stage), a checkpoint of the tiny model trained one
    step per stage, and a path where nothing is."""
    cfg = workdir / "tiny.cfg"
    pairs = tiny_set_args(steps_zone=1, steps_config=1)[1::2]
    cfg.write_text("".join(pair.replace("=", " = ", 1) + "\n" for pair in pairs))
    zone, model = str(workdir / "argv-zone.ckpt"), str(workdir / "argv-model.ckpt")
    assert main(["train-zone", "--config", str(cfg), "--dataset", tiny_dataset,
                 "--out-ckpt", zone]) == 0
    assert main(["train-config", "--config", str(cfg), "--dataset", tiny_dataset,
                 "--zone-ckpt", zone, "--out-ckpt", model]) == 0
    return {"dataset": tiny_dataset, "config": str(cfg), "model": model,
            "missing": str(workdir / "missing")}


def _ints(most=None):
    """Integer tokens of any sign and size, and tokens that are no integer."""
    return (st.integers(max_value=most).map(str)
            | st.sampled_from(["", "x", "1.5", "0x10", "1e3", "-", "9" * 5000]))


_OUTPUTS = ["--out", "--out-dir", "--out-ckpt"]
_INPUTS = {"--config": ["config", "dataset", "missing"],
           "--dataset": ["dataset", "model", "missing"],
           "--ckpt": ["model", "dataset", "missing"],
           "--zone-ckpt": ["model", "dataset", "missing"]}
_GENERATION = ["--ckpt", "--green-level", "--count", "--out-dir", "--seed", "--context-seed",
               "--dataset", "--sample-id", "--set"]
# each subcommand's valid invocation, and every flag it takes
ARGV_BASES = {
    "synth": ["--config", "--count", "--out"],
    "train-zone": ["--config", "--dataset", "--out-ckpt"],
    "train-config": ["--config", "--dataset", "--zone-ckpt", "--out-ckpt"],
    "generate": ["--ckpt", "--green-level", "--out-dir"],
    "trace": ["--ckpt", "--green-level", "--out-dir"],
    "evaluate": ["--ckpt", "--dataset", "--out"],
}
ARGV_FLAGS = {
    "synth": ["--config", "--set", "--count", "--out"],
    "train-zone": ["--config", "--set", "--dataset", "--out-ckpt"],
    "train-config": ["--config", "--set", "--dataset", "--zone-ckpt", "--out-ckpt"],
    "generate": [*_GENERATION, "--trace"],
    "trace": _GENERATION,
    "evaluate": ["--ckpt", "--dataset", "--out", "--set"],
}
# tokens no subcommand defines, and a flag of another subcommand
ARGV_STRAYS = ["--bogus", "-x", "--", "stray", "--help", "--trace"]


def _valid_value(flag, inputs, out_dir):
    """The token a valid invocation gives ``flag``."""
    return {"--count": "2", "--green-level": "1", "--config": inputs["config"],
            "--dataset": inputs["dataset"], "--ckpt": inputs["model"],
            "--zone-ckpt": inputs["model"]}.get(flag, os.path.join(out_dir, "out"))


def _value(flag, inputs, out_dir):
    """The strategy of the tokens that follow ``flag``: one, or one time in
    eight none."""
    if flag == "--count":
        # a valid count is that many samples or generations; a larger one
        # is well-formed and only slow, so positive counts stay small
        one = _ints(most=3)
    elif flag in ("--seed", "--context-seed", "--green-level", "--sample-id"):
        one = _ints()
    elif flag in _INPUTS:
        one = st.sampled_from([inputs[key] for key in _INPUTS[flag]])
    elif flag in _OUTPUTS:
        one = st.sampled_from([os.path.join(out_dir, "out"), inputs["missing"] + "/x"])
    elif flag == "--set":
        one = st.sampled_from(["seed=5", "steps_zone=2", "n=5", "lr=x", "bogus=1", "n"])
    else:
        return st.just([])
    return st.tuples(st.integers(0, 7), one).map(lambda kt: [kt[1]] if kt[0] else [])


@FUZZ
@given(data=st.data())
def test_fuzz_cli_argv_structure(workdir, argv_inputs, data):
    """A subcommand's valid invocation (or none, or an unknown subcommand)
    with options dropped, more of its flags and stray tokens added, repeats
    allowed, in any order, each added flag with or without a value, and
    integers of any sign and size among the values: ``main`` exits 0 or 1,
    with an ``error:`` line on 1, and ``--help`` exits 0; no other exception
    escapes.  Every output goes into a directory of the example's own."""
    command = data.draw(st.sampled_from([*ARGV_FLAGS, "bogus", None]))
    with tempfile.TemporaryDirectory(dir=workdir) as out_dir:
        # each of the valid invocation's options is dropped one time in four
        pairs = [[flag, _valid_value(flag, argv_inputs, out_dir)]
                 for flag in ARGV_BASES.get(command, []) if data.draw(st.integers(0, 3))]
        added = data.draw(st.lists(st.sampled_from(ARGV_FLAGS.get(command, ["--count"])),
                                   max_size=4))
        for flag in added + data.draw(st.lists(st.sampled_from(ARGV_STRAYS), max_size=2)):
            pairs.append([flag, *data.draw(_value(flag, argv_inputs, out_dir))])
        argv = [] if command is None else [command]
        for pair in data.draw(st.permutations(pairs)):
            argv += pair
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert "--help" in argv and exc.code == 0, argv
                return
    assert code in (0, 1), argv
    if code == 1:
        assert "error: " in err.getvalue(), argv
