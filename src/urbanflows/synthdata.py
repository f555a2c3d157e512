"""Synthetic world generator with a known conditional structure.

Each sample couples a green-guidance level (0..4) to a zone map grown from
random seeds and a POI configuration drawn from a fixed Poisson rate table.
Higher guidance levels empty more cells, so the guidance signal is testable;
the rate table encodes the qualitative zone/category affinities (industrial
categories are rare in commercial zones, tourist attractions concentrate in
green zones, and so on) as exact ground truth.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, ParseError
from .fileio import atomic_write, read_text_lines
from .runconfig import GUIDANCE_LEVELS, check_guidance_levels

CATEGORY_NAMES = (
    "road", "car service", "car repair", "motorbike service", "food service",
    "shopping", "daily life service", "recreation", "medical", "lodging",
    "tourist attraction", "real estate", "government", "education",
    "transportation", "finance", "company", "road furniture",
    "specific address", "public service",
)

ARCHETYPE_NAMES = ("residential", "commercial", "industrial", "green")

# relative POI weights per archetype over the 20 canonical categories;
# rows are rescaled so every zone type emits the same total rate
_RELATIVE_RATES = np.array([
    # residential
    [1.5, 0.3, 0.1, 0.1, 1.5, 1.2, 2.0, 0.8, 0.9, 0.2,
     0.05, 1.5, 0.3, 1.6, 0.8, 0.4, 0.3, 0.3, 0.6, 1.0],
    # commercial
    [1.2, 0.4, 0.02, 0.02, 2.5, 3.0, 1.5, 1.8, 0.4, 1.6,
     0.5, 0.8, 0.4, 0.3, 1.0, 2.2, 2.5, 0.3, 0.8, 0.7],
    # industrial
    [2.0, 1.5, 2.2, 1.2, 0.6, 0.3, 0.4, 0.1, 0.2, 0.3,
     0.02, 0.2, 0.3, 0.1, 2.0, 0.3, 2.8, 1.0, 0.8, 0.4],
    # green
    [0.8, 0.1, 0.05, 0.05, 0.5, 0.2, 0.3, 2.5, 0.1, 0.4,
     3.0, 0.1, 0.2, 0.2, 0.5, 0.05, 0.1, 1.5, 0.5, 0.5],
])

TOTAL_POI_RATE = 6.0


def empty_probability(green_level):
    return 0.10 + 0.18 * green_level


def poisson_rates(m, p):
    """(M, P) rate table: zone type -> per-category Poisson intensity."""
    if p < 2 or p > len(CATEGORY_NAMES):
        raise ConfigurationError(f"P must be in [2, {len(CATEGORY_NAMES)}]")
    rows = []
    for zone_type in range(m):
        rel = _RELATIVE_RATES[zone_type % len(_RELATIVE_RATES), :p]
        rows.append(rel * (TOTAL_POI_RATE / rel.sum()))
    return np.array(rows)


@dataclasses.dataclass(frozen=True, eq=False)
class Dataset:
    """A dataset as read-only stacked arrays, row b holding sample b:
    ``ids`` (B,) (int64, or Python ints once one is past int64), guidance
    ``levels`` (B,), ``context`` (B, 8, P + 2) (eight neighbour nodes, each
    [normalized POI histogram | 2 socioeconomic scalars], all zero when
    empty), zone labels ``zones`` (B, N, N) and POI ``counts`` (B, N, N, P).
    ``len`` is B; ``ds[rows]`` (a slice, as views, or an index array) is
    the Dataset of those rows."""

    ids: np.ndarray
    levels: np.ndarray
    context: np.ndarray
    zones: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for field in dataclasses.fields(self):
            getattr(self, field.name).flags.writeable = False

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, rows):
        return Dataset(*(getattr(self, field.name)[rows] for field in dataclasses.fields(self)))


def _id_array(ids):
    """(B,) ids of a list of Python ints: int64 when every one fits, else
    the ints themselves (NumPy would turn a mix past int64 into floats)."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _row_arrays(count, n, p):
    """Uninitialized context, zone and count arrays of ``count`` samples."""
    return (np.empty((count, 8, p + 2)), np.empty((count, n, n), dtype=np.int64),
            np.empty((count, n, n, p), dtype=np.int64))


def _grow_zones(rng, n, m):
    """Multi-source stochastic region growing; covers every cell.

    The labels live in a flat list indexed i * n + j; plain Python indexing
    is several times cheaper than numpy scalar indexing in this loop."""
    labels = [-1] * (n * n)
    cells = rng.choice(n * n, size=m, replace=False)
    frontier = []
    for lab, c in enumerate(cells):
        labels[int(c)] = lab
        frontier.append(divmod(int(c), n))
    remaining = n * n - m
    while remaining:
        idx = int(rng.integers(len(frontier)))
        i, j = frontier[idx]
        nbrs = []
        if i > 0 and labels[(i - 1) * n + j] < 0:
            nbrs.append((i - 1, j))
        if i < n - 1 and labels[(i + 1) * n + j] < 0:
            nbrs.append((i + 1, j))
        if j > 0 and labels[i * n + j - 1] < 0:
            nbrs.append((i, j - 1))
        if j < n - 1 and labels[i * n + j + 1] < 0:
            nbrs.append((i, j + 1))
        if not nbrs:
            frontier.pop(idx)
            continue
        a, b = nbrs[int(rng.integers(len(nbrs)))]
        labels[a * n + b] = labels[i * n + j]
        frontier.append((a, b))
        remaining -= 1
    return np.array(labels, dtype=np.int64).reshape(n, n)


def _make_context(rng, labels, m, p, green_level):
    n = labels.shape[0]
    comp = np.bincount(labels.ravel(), minlength=m).astype(np.float64) / (n * n)
    lam = poisson_rates(m, p)
    feats = np.zeros((8, p + 2))
    for node in range(8):
        if rng.random() < 0.05:
            continue  # empty neighbor
        weights = rng.dirichlet(5.0 * comp + 0.2)
        hist = weights @ lam
        hist = hist / hist.sum()
        activity = (1.0 - empty_probability(green_level)) * (0.8 + 0.4 * rng.random())
        greenery = float(np.clip(green_level / 4.0 + 0.1 * rng.normal(), 0.0, 1.0))
        feats[node, :p] = hist
        feats[node, p] = activity
        feats[node, p + 1] = greenery
    return feats


def generate_sample(seed, n, m, p, green_level):
    """Deterministically draw one sample from its seed: its (8, P + 2)
    context, (N, N) zone labels and (N, N, P) POI counts."""
    check_guidance_levels(green_level, error=ConfigurationError, shape=())
    if n < 4:
        raise ConfigurationError("N must be >= 4")
    if m < 2:
        raise ConfigurationError("M must be >= 2")
    if p < 2:
        raise ConfigurationError("P must be >= 2")
    rng = np.random.default_rng(seed)
    labels = _grow_zones(rng, n, m)
    empty = rng.random((n, n)) < empty_probability(green_level)
    lam = poisson_rates(m, p)
    counts = rng.poisson(lam[labels])
    counts[empty] = 0
    return _make_context(rng, labels, m, p, green_level), labels, counts


def make_dataset(count, n, m, p, seed):
    """Deterministic ``Dataset``: row i is the ``generate_sample`` draw of
    id and seed seed * 1_000_003 + i at guidance level i mod 5."""
    ids = [seed * 1_000_003 + i for i in range(count)]
    levels = np.arange(count, dtype=np.int64) % GUIDANCE_LEVELS
    arrays = _row_arrays(count, n, p)
    for i, sample_id in enumerate(ids):
        for array, row in zip(arrays, generate_sample(sample_id, n, m, p, i % GUIDANCE_LEVELS)):
            array[i] = row
    return Dataset(_id_array(ids), levels, *arrays)


def info_vectors(node_features, levels):
    """The Urban Information Vectors e = [context embedding | guidance] of a
    batch: (B, 8, P + 2) node features and (B,) guidance levels -> (B, D).

    The context embedding is the order-invariant [mean | max] over the 8
    nodes; the guidance is the level's one-hot."""
    feats = np.asarray(node_features, dtype=np.float64)
    onehot = np.zeros((len(feats), GUIDANCE_LEVELS))
    onehot[np.arange(len(feats)), check_guidance_levels(levels, shape=(len(feats),))] = 1.0
    return np.concatenate([feats.mean(axis=1), feats.max(axis=1), onehot], axis=1)


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

DATASET_VERSION = 1


def write_dataset(path, ds, n, m, p):
    with atomic_write(path) as fh:
        header = {"format_version": DATASET_VERSION, "N": n, "M": m, "P": p}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for sample_id, level, context, zones, counts in zip(
                ds.ids.tolist(), ds.levels.tolist(), ds.context, ds.zones, ds.counts):
            rec = {
                "id": sample_id,
                "green_level": level,
                "context": context.tolist(),
                "zones": zones.ravel().tolist(),
                "config": counts.ravel().tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _int_array(values, key):
    """The int64 array of a record's flat list of JSON integers; a float,
    a boolean or any other entry raises ``DataError``."""
    if not isinstance(values, list) or set(map(type, values)) - {int}:
        raise DataError(f"{key} entries must all be integers")
    return np.array(values, dtype=np.int64)


def _context_array(rows):
    """The float64 array of a record's context, a list of rows of JSON
    numbers; a boolean, a string, null or any other entry raises
    ``DataError``."""
    if (not isinstance(rows, list) or not all(type(row) is list for row in rows)
            or set(map(type, chain.from_iterable(rows))) - {int, float}):
        raise DataError("context must be a list of rows of JSON numbers")
    return np.array(rows, dtype=np.float64)


def read_dataset(path):
    """The ``Dataset`` of a dataset file, and its meta dict with N/M/P.

    The header must give integers N >= 2 and M, P >= 1.  A record that
    fails a check, or repeats an earlier record's id (``--sample-id`` picks
    a sample by it), raises ``ParseError`` naming its line.  Each record is
    copied into its row as it is read.
    """
    lines = read_text_lines(path)
    if not lines:
        raise ParseError("dataset file has no header line", line_number=1, path=path)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ParseError(f"bad header: {exc}", line_number=1, path=path) from exc
    if not isinstance(header, dict):
        raise ParseError("header is not a JSON object", line_number=1, path=path)
    version = header.get("format_version")
    if type(version) is not int or version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version!r:.40}")
    n, m, p = dims = [header.get(key) for key in ("N", "M", "P")]
    try:
        if not all(type(v) is int for v in dims) or n < 2 or min(m, p) < 1:
            raise ValueError
        arrays = _row_arrays(0, n, p)  # numpy refuses an N and P too large to shape
    except ValueError:
        raise ParseError(f"header dimensions must be integers N >= 2 and M, P >= 1, "
                         f"got {dims!r:.60}", line_number=1, path=path) from None
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    ids, id_lines = [], {}
    levels = np.empty(len(body), dtype=np.int64)
    for i, (lineno, line) in enumerate(body):
        try:
            rec = json.loads(line)
            context = _context_array(rec["context"])
            if context.shape != (8, p + 2):
                raise DataError(f"context must be 8 rows of P + 2 = {p + 2} entries")
            if not np.isfinite(context).all():
                raise DataError("context values must be finite")
            zones = _int_array(rec["zones"], "zones").reshape(n, n)
            if zones.min() < 0 or zones.max() >= m:
                raise DataError(f"zone labels must lie in [0, {m - 1}]")
            counts = _int_array(rec["config"], "config").reshape(n, n, p)
            if counts.min() < 0:
                raise DataError("POI counts must be nonnegative")
            sample_id = rec["id"]
            if type(sample_id) is not int:
                raise DataError(f"id must be an integer, got {sample_id!r:.40}")
            levels[i] = check_guidance_levels(rec["green_level"], shape=())
        except (KeyError, ValueError, TypeError, OverflowError, DataError) as exc:
            raise ParseError(f"bad record: {exc}", line_number=lineno, path=path) from exc
        first = id_lines.setdefault(sample_id, lineno)
        if first != lineno:
            raise ParseError(f"repeated id {sample_id} (first on line {first})",
                             line_number=lineno, path=path)
        ids.append(sample_id)
        if i == 0:  # allocated once a record's own shapes have confirmed N and P
            arrays = _row_arrays(len(body), n, p)
        for array, row in zip(arrays, (context, zones, counts)):
            array[i] = row
    return Dataset(_id_array(ids), levels, *arrays), {"N": n, "M": m, "P": p}
