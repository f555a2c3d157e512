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
    with pytest.raises(ConfigurationError):
        RunConfig.from_sources(None, {"seed": "abc"})
    with pytest.raises(ConfigurationError):
        RunConfig.from_sources(None, {"use_geo": "maybe"})
    with pytest.raises(ConfigurationError):
        RunConfig.from_sources(None, {"zone_hidden": "a,b"})
    path = tmp_path / "bad.cfg"
    path.write_text("n = 8\nthis line has no equals\n")
    with pytest.raises(ParseError) as info:
        parse_config_file(path)
    assert info.value.line_number == 2


def test_as_dict_round_trips_through_overrides():
    rc = RunConfig(n=4, m=2, p=2, heads=1, stem_channels=2, n_cx=2,
                   zone_hidden=(6,), config_hidden=(6,)).validate()
    snap = rc.as_dict()
    rc2 = RunConfig.from_sources(None, snap)
    assert rc2.as_dict() == snap