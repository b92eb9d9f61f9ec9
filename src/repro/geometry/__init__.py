"""Geometric primitives used throughout the framework.

Everything here is NumPy-vectorised: the scalar classes (:class:`Box3`,
:class:`Sphere`) are thin, convenient wrappers, while the ``*_many``
module-level functions operate on arrays of boxes/spheres/points at once,
which is what the traversal engines use on their hot paths.
"""

from .box import (
    Box3,
    boxes_center,
    boxes_contain_points,
    boxes_intersect_boxes,
    boxes_longest_dim,
    boxes_union,
    bounding_box,
    point_box_distance_sq,
    points_boxes_distance_sq,
)
from .sphere import Sphere
from .hilbert import HILBERT_BITS, hilbert_decode, hilbert_encode, hilbert_keys
from .morton import (
    MORTON_BITS,
    MORTON_MAX_COORD,
    morton_decode,
    morton_encode,
    morton_keys,
    normalize_to_grid,
)

__all__ = [
    "Box3",
    "Sphere",
    "MORTON_BITS",
    "HILBERT_BITS",
    "hilbert_encode",
    "hilbert_decode",
    "hilbert_keys",
    "MORTON_MAX_COORD",
    "bounding_box",
    "boxes_center",
    "boxes_contain_points",
    "boxes_intersect_boxes",
    "boxes_longest_dim",
    "boxes_union",
    "morton_decode",
    "morton_encode",
    "morton_keys",
    "normalize_to_grid",
    "point_box_distance_sq",
    "points_boxes_distance_sq",
]
