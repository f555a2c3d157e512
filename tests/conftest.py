import json

import numpy as np
import pytest

from urbanflows.runconfig import RunConfig


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def mini_runconfig(**overrides):
    """Smallest bundle that exercises every code path: N=4, M=2, P=2."""
    base = dict(n=4, m=2, p=2, k_zone=1, k_config=1,
                zone_hidden=(6,), config_hidden=(6,), heads=1,
                stem_channels=2, n_cx=2, batch_size=4, seed=11)
    base.update(overrides)
    return RunConfig(**base).validate()


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
