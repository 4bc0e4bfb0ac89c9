"""Seeded training inputs: Adult-shaped LLP bags and MNIST-shaped grids.

Adult-shaped rows are standardized features whose binary label follows a
noisy linear rule, so bag-wise training has signal. Grid tiles are one of
ten fixed 28x28 glyphs, drawn large or shrunk to half size, plus noise.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

FEATURES = 12
INSTANCES = 4096
BAG_SIZE = 32
GRIDS = 128
TILE = 28


def make_bags(seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``INSTANCES // BAG_SIZE`` bags of (features, per-class counts)."""
    rng = np.random.default_rng(seed + 10)
    x = rng.normal(size=(INSTANCES, FEATURES)).astype(np.float32)
    w = rng.normal(size=FEATURES)
    labels = (x @ w + 0.5 * rng.normal(size=INSTANCES) > 0).astype(np.int64)
    bags = []
    for start in range(0, INSTANCES, BAG_SIZE):
        idx = slice(start, start + BAG_SIZE)
        counts = np.bincount(labels[idx], minlength=2).astype(np.float32)
        bags.append((x[idx], counts))
    return bags


def _glyphs(rng: np.random.Generator) -> np.ndarray:
    """Ten 28x28 binary glyphs: 7x7 random masks upsampled four times."""
    masks = rng.random((10, 7, 7)) > 0.5
    return np.kron(masks, np.ones((4, 4))).astype(np.float32)


def make_grids(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``GRIDS`` (84, 84) grids and their (20,) counts, digit-major then size."""
    rng = np.random.default_rng(seed + 20)
    glyphs = _glyphs(rng)
    small = glyphs[:, ::2, ::2]
    grids = np.zeros((GRIDS, 3 * TILE, 3 * TILE), dtype=np.float32)
    counts = np.zeros((GRIDS, 20), dtype=np.float32)
    for g in range(GRIDS):
        for tile in range(9):
            digit, size = int(rng.integers(0, 10)), int(rng.integers(0, 2))
            image = np.zeros((TILE, TILE), dtype=np.float32)
            if size:
                image[:] = glyphs[digit]
            else:
                image[7:21, 7:21] = small[digit]
            r, c = divmod(tile, 3)
            grids[g, r * TILE:(r + 1) * TILE, c * TILE:(c + 1) * TILE] = image
            counts[g, digit * 2 + size] += 1.0
    grids += rng.normal(scale=0.1, size=grids.shape).astype(np.float32)
    return grids, counts
