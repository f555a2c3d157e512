"""Run configuration: one flat record of every dimension and knob.

Config files are plain ``key = value`` text (one pair per line, ``#``
comments); command-line overrides win over file values.  All derived
dimensions are computed through properties so they can never drift out of
sync with the primary fields.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigurationError, DataError, ParseError
from .fileio import read_text_lines

# green-guidance levels 0 .. GUIDANCE_LEVELS - 1, one-hot in the info vector
GUIDANCE_LEVELS = 5


def check_guidance_levels(levels, error=DataError, shape=None):
    """``levels``, one level or an array of them, as an integer array; raises
    ``error`` unless each is an integer (not a bool, float or string) in
    [0, GUIDANCE_LEVELS) and, when ``shape`` is given, the array has that
    shape (``()`` for a single level)."""
    try:
        arr = np.asarray(levels)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iu"
            or ((arr < 0) | (arr >= GUIDANCE_LEVELS)).any()):
        raise error(f"guidance level out of range: each must be an integer in "
                    f"[0, {GUIDANCE_LEVELS - 1}], got {levels!r:.60}")
    if shape is not None and arr.shape != shape:
        raise error(f"guidance levels must have shape {shape}, got {levels!r:.60}")
    return arr


@dataclasses.dataclass
class RunConfig:
    n: int = 8
    m: int = 4
    p: int = 5
    k_zone: int = 6
    k_config: int = 4
    zone_hidden: tuple = (64, 64)
    config_hidden: tuple = (64, 64)
    heads: int = 1
    stem_channels: int = 8
    n_cx: int = 3
    drop_path: float = 0.0
    lr: float = 1e-3
    zone_lr_scale: float = 0.1
    lambda_zone: float = 0.1
    batch_size: int = 32
    steps_zone: int = 1500
    steps_config: int = 1500
    seed: int = 0
    use_attention: bool = True
    use_geo: bool = True
    use_condition_projection: bool = True
    use_uncond_ar: bool = True
    use_sampled_u: bool = True

    @property
    def d1(self):
        return 2 * (self.p + 2)

    @property
    def d2(self):
        return GUIDANCE_LEVELS

    @property
    def info_dim(self):
        return self.d1 + self.d2

    @property
    def d_zone(self):
        return self.n * self.n

    @property
    def d_config(self):
        return self.n * self.n * self.p

    def validate(self):
        # lower bounds first, so the checks below never divide by zero
        for name, least in (("n", 4), ("m", 2), ("k_zone", 1), ("k_config", 1), ("heads", 1),
                            ("stem_channels", 1), ("n_cx", 1), ("batch_size", 2),
                            ("steps_zone", 0), ("steps_config", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigurationError(f"{name} must be >= {least}")
        for name in ("zone_hidden", "config_hidden"):
            if any(width < 1 for width in getattr(self, name)):
                raise ConfigurationError(f"{name}: hidden widths must be >= 1")
        # stage 2's AR conditioners take their condition in the hidden layers
        if not self.config_hidden:
            raise ConfigurationError("config_hidden needs at least one width")
        if self.n % 2:
            raise ConfigurationError("n must be even (coupling splits N^2 in half)")
        if not 2 <= self.p <= 20:
            raise ConfigurationError("p must be in [2, 20]")
        if self.info_dim % self.heads:
            raise ConfigurationError(
                f"D={self.info_dim} must be divisible by heads={self.heads}"
            )
        # test n >> k first: 1 << k for a huge k would build a huge int
        if self.n >> (self.n_cx - 1) < 1 or self.n % (1 << (self.n_cx - 1)):
            raise ConfigurationError(
                f"n={self.n} incompatible with {self.n_cx - 1} stride-2 down-samples"
            )
        # written so that NaN fails every comparison and is rejected
        if not 0.0 < self.lr < math.inf:
            raise ConfigurationError("lr must be positive and finite")
        if not (0.0 <= self.lambda_zone < math.inf and 0.0 <= self.zone_lr_scale < math.inf):
            raise ConfigurationError("stage-2 weights must be nonnegative and finite")
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigurationError("drop_path must be in [0, 1)")
        return self

    def as_dict(self):
        out = dataclasses.asdict(self)
        out["zone_hidden"] = list(self.zone_hidden)
        out["config_hidden"] = list(self.config_hidden)
        return out

    @classmethod
    def from_sources(cls, file_path=None, overrides=None):
        values = {}
        if file_path is not None:
            values.update(parse_config_file(file_path))
        for key, raw in (overrides or {}).items():
            values[key] = raw
        kwargs = {}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, raw in values.items():
            if key not in fields:
                raise ConfigurationError(f"unknown config key: {key}")
            kwargs[key] = _coerce(raw, getattr(cls, key), key)
        return cls(**kwargs).validate()


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# One rule per field type: what a refusal says the key expected, how a string
# (from a config file or ``--set``) parses, and which already-typed values
# (from a checkpoint header's JSON config) the type accepts.  An accepted
# value is then converted to the field's type: ints widen to floats, lists
# become tuples.
_RULES = {
    bool: ("a boolean", lambda s: _BOOL_WORDS[s.lower()], lambda v: isinstance(v, bool)),
    int: ("an integer", int, _is_int),
    float: ("a number", float, lambda v: _is_int(v) or isinstance(v, float)),
    tuple: ("a list of integers", lambda s: [int(tok) for tok in s.split(",") if tok.strip()],
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}


def _coerce(raw, default, key):
    """``raw`` as the type of the field whose default is ``default``; any
    value the field's rule refuses raises ``ConfigurationError``."""
    kind = type(default)
    expected, parse, accepts = _RULES[kind]
    try:
        if isinstance(raw, str):
            raw = raw.strip()
            return kind(parse(raw))
        if accepts(raw):
            return kind(raw)
    except (KeyError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        pass
    raise ConfigurationError(f"{key}: expected {expected}, got {raw!r:.40}")


def parse_config_file(path):
    values = {}
    for lineno, line in enumerate(read_text_lines(path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value': {stripped!r}",
                             line_number=lineno, path=path)
        key, _, val = stripped.partition("=")
        values[key.strip()] = val.strip()
    return values