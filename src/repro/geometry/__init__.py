"""Geometric primitives used throughout the framework.

Everything here is NumPy-vectorised: :class:`Box3` is a thin, convenient
wrapper, while the module-level distance functions operate on arrays of
boxes and points at once, which is what the traversal engines use on their
hot paths.
"""

from .box import Box3, bounding_box, point_box_distance_sq
from .hilbert import HILBERT_BITS, hilbert_encode, hilbert_keys
from .morton import (
    MORTON_BITS,
    MORTON_MAX_COORD,
    morton_encode,
    morton_keys,
    normalize_to_grid,
)

__all__ = [
    "Box3",
    "MORTON_BITS",
    "HILBERT_BITS",
    "hilbert_encode",
    "hilbert_keys",
    "MORTON_MAX_COORD",
    "bounding_box",
    "morton_encode",
    "morton_keys",
    "normalize_to_grid",
    "point_box_distance_sq",
]
