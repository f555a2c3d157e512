"""Synthetic world generator with a known conditional structure.

Each sample couples a green-guidance level (0..4) to a zone map grown from
random seeds and a POI configuration drawn from a fixed Poisson rate table.
Higher guidance levels empty more cells, so the guidance signal is testable;
the rate table encodes the qualitative zone/category affinities (industrial
categories are rare in commercial zones, tourist attractions concentrate in
green zones, and so on) as exact ground truth.
"""

from __future__ import annotations

import json

import numpy as np

from .config_flow import ConfigTensor
from .errors import ConfigurationError, DataError, FormatError, ParseError
from .fileio import atomic_write, read_text_lines
from .zone_flow import ZoneMap

GUIDANCE_LEVELS = 5

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


class ContextGraph:
    """Eight directional neighbor nodes around the target region.

    Each node carries [normalized POI histogram (P) | 2 socioeconomic
    scalars]; all-zero rows denote empty neighbors.
    """

    DIRECTIONS = ("n", "ne", "e", "se", "s", "sw", "w", "nw")

    __slots__ = ("node_features",)

    def __init__(self, node_features):
        feats = np.asarray(node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != 8:
            raise DataError("context graph needs exactly 8 neighbor nodes")
        self.node_features = feats

    @property
    def p(self):
        return self.node_features.shape[1] - 2

    def __eq__(self, other):
        return (isinstance(other, ContextGraph)
                and np.array_equal(self.node_features, other.node_features))


class SynthSample:
    __slots__ = ("id", "green_level", "context", "zones", "config")

    def __init__(self, sample_id, green_level, context, zones, config):
        self.id = int(sample_id)
        self.green_level = int(green_level)
        self.context = context
        self.zones = zones
        self.config = config

    def __eq__(self, other):
        return (isinstance(other, SynthSample)
                and self.id == other.id
                and self.green_level == other.green_level
                and self.context == other.context
                and self.zones == other.zones
                and self.config == other.config)


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
    return ContextGraph(feats)


def generate_sample(seed, n, m, p, green_level):
    """Deterministically generate one sample from its seed."""
    if not 0 <= green_level < GUIDANCE_LEVELS:
        raise ConfigurationError(f"green level must be in [0, {GUIDANCE_LEVELS - 1}]")
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
    context = _make_context(rng, labels, m, p, green_level)
    return SynthSample(seed, green_level, context, ZoneMap(labels),
                       ConfigTensor(counts))


def make_dataset(count, n, m, p, seed):
    """Deterministic dataset: round-robin green levels, derived seeds."""
    return [generate_sample(seed * 1_000_003 + i, n, m, p, i % GUIDANCE_LEVELS)
            for i in range(count)]


def embed_context(graph):
    """Order-invariant context embedding: [mean ‖ max] over the 8 nodes."""
    feats = graph.node_features
    return np.concatenate([feats.mean(axis=0), feats.max(axis=0)]).reshape(1, -1)


def encode_guidance(level):
    if not isinstance(level, (int, np.integer)) or not 0 <= level < GUIDANCE_LEVELS:
        raise DataError(f"guidance level must be an integer in [0, {GUIDANCE_LEVELS - 1}]")
    onehot = np.zeros((1, GUIDANCE_LEVELS))
    onehot[0, level] = 1.0
    return onehot


def build_info_vector(context, level):
    """The Urban Information Vector e = [context embedding | guidance]."""
    return np.concatenate([embed_context(context), encode_guidance(level)], axis=1)


def info_dim(p):
    return 2 * (p + 2) + GUIDANCE_LEVELS


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

DATASET_VERSION = 1


def write_dataset(path, samples, n, m, p):
    with atomic_write(path) as fh:
        header = {"format_version": DATASET_VERSION, "N": n, "M": m, "P": p}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in samples:
            rec = {
                "id": s.id,
                "green_level": s.green_level,
                "context": s.context.node_features.tolist(),
                "zones": s.zones.labels.ravel().tolist(),
                "config": s.config.counts.ravel().tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_dataset(path):
    """Returns (samples, meta dict with N/M/P)."""
    lines = read_text_lines(path)
    if not lines:
        raise ParseError("dataset file has no header line", line_number=1)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ParseError(f"bad header: {exc}", line_number=1) from exc
    if not isinstance(header, dict):
        raise ParseError("header is not a JSON object", line_number=1)
    if header.get("format_version") != DATASET_VERSION:
        raise FormatError(
            f"unsupported dataset version {header.get('format_version')!r}"
        )
    dims = [header.get(key) for key in ("N", "M", "P")]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in dims):
        raise ParseError(f"header dimensions N, M, P must be integers, got {dims!r:.60}",
                         line_number=1)
    n, m, p = dims
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            context = ContextGraph(np.array(rec["context"], dtype=np.float64))
            if context.p != p:
                raise DataError(f"context rows must have P + 2 = {p + 2} entries")
            zones = np.array(rec["zones"], dtype=np.int64).reshape(n, n)
            config = np.array(rec["config"], dtype=np.int64).reshape(n, n, p)
            sample = SynthSample(rec["id"], rec["green_level"], context,
                                 ZoneMap(zones), ConfigTensor(config))
        except (KeyError, ValueError, TypeError, OverflowError, DataError) as exc:
            raise ParseError(f"bad record: {exc}", line_number=lineno) from exc
        samples.append(sample)
    return samples, {"N": n, "M": m, "P": p}