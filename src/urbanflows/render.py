"""Tiny binary-PPM renderer for configuration tensors.

Each grid cell becomes a square block of pixels colored by its dominant
category (argmax of the count vector); cells with no counts at all stay
white.  The palette is fixed so the same tensor always renders to the same
bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .fileio import atomic_write

# one color per category slot, chosen for contrast between neighbors
PALETTE = np.array(
    [
        (64, 64, 64),     # road: asphalt grey
        (31, 119, 180),
        (255, 127, 14),
        (44, 160, 44),
        (214, 39, 40),
        (148, 103, 189),
        (140, 86, 75),
        (227, 119, 194),
        (127, 127, 127),
        (188, 189, 34),
        (23, 190, 207),
        (174, 199, 232),
        (255, 187, 120),
        (152, 223, 138),
        (255, 152, 150),
        (197, 176, 213),
        (196, 156, 148),
        (247, 182, 210),
        (199, 199, 199),
        (219, 219, 141),
    ],
    dtype=np.uint8,
)

CELL_PIXELS = 8


def config_image(counts, cell=CELL_PIXELS):
    """Return an (N*cell, N*cell, 3) uint8 image for an (N, N, P) count array."""
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[0] != counts.shape[1]:
        raise ConfigurationError(f"expected (N, N, P) counts, got {counts.shape}")
    p = counts.shape[2]
    if p > len(PALETTE):
        raise ConfigurationError(
            f"palette has {len(PALETTE)} colors, cannot render P={p}"
        )
    dominant = counts.argmax(axis=2)
    empty = counts.sum(axis=2) == 0
    colors = PALETTE[dominant]
    colors[empty] = (255, 255, 255)
    return np.repeat(np.repeat(colors, cell, axis=0), cell, axis=1)


def write_ppm(path, image):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    with atomic_write(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(image.tobytes())


def render_config_ppm(path, counts, cell=CELL_PIXELS):
    write_ppm(path, config_image(counts, cell=cell))