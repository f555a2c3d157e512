import dataclasses
import json

import numpy as np
import pytest

from urbanflows.runconfig import RunConfig
from urbanflows.synthdata import Dataset, generate_sample


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# the CI's tiny geometry: the smallest bundle that exercises every code path
TINY = dict(n=4, m=2, p=2, k_zone=1, k_config=1, zone_hidden=(6,), config_hidden=(6,),
            heads=1, stem_channels=2, n_cx=2, batch_size=4)


def mini_runconfig(**overrides):
    """Smallest bundle that exercises every code path: N=4, M=2, P=2."""
    base = dict(TINY, seed=11)
    base.update(overrides)
    return RunConfig(**base).validate()


def tiny_set_args(**extra):
    """``--set key=value`` arguments of ``TINY`` with ``extra`` on top,
    whose values go in as given."""
    values = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in TINY.items()}
    return [arg for key, value in {**values, **extra}.items()
            for arg in ("--set", f"{key}={value}")]


def assert_same_dataset(a, b):
    """``a`` and ``b`` hold equal arrays, field by field."""
    for field in dataclasses.fields(Dataset):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def dataset_of(seeds, levels, n, m, p):
    """The ``Dataset`` of one ``generate_sample`` draw per (seed, level)."""
    draws = [generate_sample(seed, n, m, p, level) for seed, level in zip(seeds, levels)]
    return Dataset(np.array(seeds), np.array(levels), *map(np.stack, zip(*draws)))


def add_param(store, name, data, trainable=True):
    """Register a parameter of a fresh ``store`` that holds a copy of ``data``."""
    return store.param(name, np.shape(data),
                       lambda shape: np.array(data, dtype=np.float64), trainable)


def _rewrite_header(path, edit):
    with open(path, "rb") as fh:
        blob = fh.read()
    nl1 = blob.find(b"\n")
    nl2 = blob.find(b"\n", nl1 + 1)
    header = json.loads(blob[nl1 + 1:nl2])
    edit(header)
    with open(path, "wb") as fh:
        fh.write(blob[:nl1 + 1] + json.dumps(header).encode() + blob[nl2:])


@pytest.fixture
def rewrite_header():
    """rewrite_header(path, edit): apply ``edit`` to a checkpoint's parsed
    JSON header in place and write the file back."""
    return _rewrite_header
