"""RunConfig validation and the flat key=value config file format."""

import pytest

from urbanflows.errors import ConfigurationError, ParseError
from urbanflows.runconfig import RunConfig, parse_config_file


def test_defaults_are_valid_and_dimensions_derive():
    rc = RunConfig().validate()
    assert rc.d_zone == 64
    assert rc.d_config == 320
    assert rc.d1 == 14 and rc.d2 == 5 and rc.info_dim == 19
    assert rc.info_dim % rc.heads == 0


@pytest.mark.parametrize("bad", [
    dict(n=3),                       # too small
    dict(n=10, n_cx=3),              # not divisible by 2^(n_cx-1)
    dict(n=7),                       # odd
    dict(m=1),
    dict(p=1),
    dict(p=21),
    dict(heads=2),                   # 19 % 2 != 0
    dict(k_zone=0),
    dict(batch_size=1),
    dict(lr=0.0),
    dict(lambda_zone=-0.1),
    dict(steps_zone=-5),
    dict(drop_path=1.0),
    dict(lr=float("nan")),           # NaN fails every comparison
    dict(lr=float("inf")),
    dict(lambda_zone=float("nan")),
    dict(zone_lr_scale=float("inf")),
    dict(config_hidden=()),          # the AR conditioners' condition needs a layer
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ConfigurationError):
        RunConfig(**bad).validate()


def test_empty_hidden_widths():
    """An empty ``zone_hidden`` is a linear coupling conditioner; an empty
    ``config_hidden`` leaves stage 2's condition nowhere to enter."""
    assert RunConfig.from_sources(None, {"zone_hidden": ""}).zone_hidden == ()
    with pytest.raises(ConfigurationError, match="config_hidden needs at least one width"):
        RunConfig.from_sources(None, {"config_hidden": ""})


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n = 4\n"
        "m=2  # trailing comment\n"
        "p = 2\n"
        "zone_hidden = 6,6\n"
        "use_attention = false\n"
        "lr = 0.01\n"
        "\n"
    )
    rc = RunConfig.from_sources(path, {"seed": "5", "stem_channels": "2",
                                       "n_cx": "2"})
    assert rc.n == 4 and rc.m == 2 and rc.p == 2
    assert rc.zone_hidden == (6, 6)
    assert rc.use_attention is False
    assert rc.lr == 0.01
    assert rc.seed == 5


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nlr = 0.5\n")
    rc = RunConfig.from_sources(path, {"seed": "9"})
    assert rc.seed == 9 and rc.lr == 0.5


def test_unknown_and_malformed_keys(tmp_path):
    with pytest.raises(ConfigurationError):
        RunConfig.from_sources(None, {"not_a_key": "1"})
    path = tmp_path / "bad.cfg"
    path.write_text("n = 8\nthis line has no equals\n")
    with pytest.raises(ParseError) as info:
        parse_config_file(path)
    assert info.value.line_number == 2


def _refused(key, expected, shown):
    return f"{key}: expected {expected}, got {shown}"


# (key, value as a string from a config file or --set, or as a checkpoint
# header's JSON value; the field's value, or the refusal's message)
COERCION = [
    # bool fields: true/1/yes and false/0/no in any case; typed, only bools
    ("use_geo", "yes", True),
    ("use_geo", " FALSE ", False),
    ("use_geo", "1", True),
    ("use_geo", "0", False),
    ("use_geo", "maybe", _refused("use_geo", "a boolean", "'maybe'")),
    ("use_geo", "", _refused("use_geo", "a boolean", "''")),
    ("use_geo", False, False),
    ("use_geo", 1, _refused("use_geo", "a boolean", "1")),
    ("use_geo", "on", _refused("use_geo", "a boolean", "'on'")),
    ("use_geo", None, _refused("use_geo", "a boolean", "None")),
    # int fields: int(); typed, ints that are not bools
    ("seed", "5", 5),
    ("seed", " 12 ", 12),
    ("seed", "abc", _refused("seed", "an integer", "'abc'")),
    ("seed", "1.5", _refused("seed", "an integer", "'1.5'")),
    ("seed", 7, 7),
    ("seed", True, _refused("seed", "an integer", "True")),
    ("seed", 7.0, _refused("seed", "an integer", "7.0")),
    ("seed", [7], _refused("seed", "an integer", "[7]")),
    # float fields: float(); typed, ints (widened) and floats
    ("lr", "0.01", 0.01),
    ("lr", "1e-2", 0.01),
    ("lr", "fast", _refused("lr", "a number", "'fast'")),
    ("lr", 0.5, 0.5),
    ("lr", 3, 3.0),
    ("lr", True, _refused("lr", "a number", "True")),
    ("lr", "0.5,", _refused("lr", "a number", "'0.5,'")),
    ("lr", 10 ** 400, _refused("lr", "a number", "1" + "0" * 39)),
    # tuple fields: comma lists of int() that skip empty tokens; typed,
    # lists of ints
    ("zone_hidden", "6,6", (6, 6)),
    ("zone_hidden", " 6,,8, ", (6, 8)),
    ("zone_hidden", "a,b", _refused("zone_hidden", "a list of integers", "'a,b'")),
    ("zone_hidden", "6;6", _refused("zone_hidden", "a list of integers", "'6;6'")),
    ("zone_hidden", [6, 6], (6, 6)),
    ("zone_hidden", [], ()),
    ("zone_hidden", [6, True], _refused("zone_hidden", "a list of integers", "[6, True]")),
    ("zone_hidden", [6.0], _refused("zone_hidden", "a list of integers", "[6.0]")),
    ("zone_hidden", 6, _refused("zone_hidden", "a list of integers", "6")),
]


@pytest.mark.parametrize("key,raw,want", COERCION,
                         ids=[f"{key}={raw!r:.20}" for key, raw, _ in COERCION])
def test_coercion_rule(key, raw, want):
    """One rule per field type for both sources; every refusal reads
    ``<key>: expected <what>, got <value>``."""
    if isinstance(want, str):
        with pytest.raises(ConfigurationError) as info:
            RunConfig.from_sources(None, {key: raw})
        assert str(info.value) == want
    else:
        value = getattr(RunConfig.from_sources(None, {key: raw}), key)
        assert value == want and type(value) is type(want)


def test_as_dict_round_trips_through_overrides():
    rc = RunConfig(n=4, m=2, p=2, heads=1, stem_channels=2, n_cx=2,
                   zone_hidden=(6,), config_hidden=(6,)).validate()
    snap = rc.as_dict()
    rc2 = RunConfig.from_sources(None, snap)
    assert rc2.as_dict() == snap