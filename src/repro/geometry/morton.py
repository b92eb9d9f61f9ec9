"""Morton (Z-order) space-filling-curve keys.

SFC decomposition maps particles onto the number line with a space-filling
curve and slices that line into ranges that are uniform in particle count
(Warren & Salmon 1993).  We use 21 bits per dimension, giving 63-bit keys
that fit in ``uint64`` with the top bit spare (the classic "hashed oct-tree"
layout: the key of an octree node is a prefix of the keys of the particles it
contains).

Encoding is fully vectorised with the magic-bits bit-spreading trick; no
Python-level loops over particles.
"""

from __future__ import annotations

import numpy as np

from .box import Box3

__all__ = [
    "MORTON_BITS",
    "MORTON_MAX_COORD",
    "morton_encode",
    "morton_keys",
    "normalize_to_grid",
]

#: Bits of resolution per dimension.
MORTON_BITS = 21
#: Largest representable integer grid coordinate.
MORTON_MAX_COORD = (1 << MORTON_BITS) - 1

# Magic constants for spreading 21 bits with 2-bit gaps (part1by2).
_MASKS = (
    np.uint64(0x1FFFFF),               # 21 low bits
    np.uint64(0x1F00000000FFFF),
    np.uint64(0x1F0000FF0000FF),
    np.uint64(0x100F00F00F00F00F),
    np.uint64(0x10C30C30C30C30C3),
    np.uint64(0x1249249249249249),
)
_SHIFTS = (32, 16, 8, 4, 2)


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each element so consecutive bits land three
    apart: bit i -> bit 3*i."""
    x = x.astype(np.uint64) & _MASKS[0]
    for shift, mask in zip(_SHIFTS, _MASKS[1:]):
        x = (x | (x << np.uint64(shift))) & mask
    return x


def morton_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave three integer grid coordinates into Morton keys.

    Bit layout (low to high): x0 y0 z0 x1 y1 z1 ...
    """
    ix = np.asarray(ix, dtype=np.uint64)
    iy = np.asarray(iy, dtype=np.uint64)
    iz = np.asarray(iz, dtype=np.uint64)
    if np.any(ix > MORTON_MAX_COORD) or np.any(iy > MORTON_MAX_COORD) or np.any(
        iz > MORTON_MAX_COORD
    ):
        raise ValueError(f"grid coordinates exceed {MORTON_BITS}-bit range")
    return _part1by2(ix) | (_part1by2(iy) << np.uint64(1)) | (_part1by2(iz) << np.uint64(2))


def normalize_to_grid(points: np.ndarray, box: Box3) -> np.ndarray:
    """Map points in ``box`` onto the integer Morton grid -> (N, 3) uint64.

    Points exactly on the upper face map to the maximum coordinate rather
    than overflowing.
    """
    points = np.asarray(points, dtype=np.float64)
    size = np.where(box.size > 0, box.size, 1.0)
    frac = (points - box.lo) / size
    frac = np.clip(frac, 0.0, 1.0)
    grid = np.minimum((frac * (MORTON_MAX_COORD + 1)).astype(np.uint64), MORTON_MAX_COORD)
    return grid


def morton_keys(points: np.ndarray, box: Box3) -> np.ndarray:
    """Morton key of each point in the universe ``box`` -> (N,) uint64."""
    grid = normalize_to_grid(points, box)
    return morton_encode(grid[:, 0], grid[:, 1], grid[:, 2])
