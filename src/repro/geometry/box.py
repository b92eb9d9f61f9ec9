"""Axis-aligned bounding boxes in 3-D.

The scalar :class:`Box3` is used at API boundaries (tree nodes expose their
box through it); the array functions below are the vectorised kernels the
traversals actually run.  A box is *empty* when ``lo > hi`` in any dimension;
:func:`Box3.empty` produces the canonical empty box, which acts as the
identity element for :func:`Box3.union`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box3",
    "bounding_box",
    "boxes_center",
    "boxes_contain_points",
    "boxes_intersect_boxes",
    "boxes_longest_dim",
    "boxes_union",
    "point_box_distance_sq",
    "points_boxes_distance_sq",
]


@dataclass
class Box3:
    """A closed axis-aligned box ``[lo, hi]`` in 3-D.

    Attributes
    ----------
    lo, hi:
        Length-3 float arrays.  ``lo <= hi`` for non-empty boxes.
    """

    lo: np.ndarray = field(default_factory=lambda: np.full(3, np.inf))
    hi: np.ndarray = field(default_factory=lambda: np.full(3, -np.inf))

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.float64).reshape(3)
        self.hi = np.asarray(self.hi, dtype=np.float64).reshape(3)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def empty() -> "Box3":
        """The identity element for union: contains nothing."""
        return Box3()

    @staticmethod
    def cube(center, half_side: float) -> "Box3":
        center = np.asarray(center, dtype=np.float64)
        return Box3(center - half_side, center + half_side)

    @staticmethod
    def from_points(points: np.ndarray) -> "Box3":
        points = np.asarray(points, dtype=np.float64)
        if points.size == 0:
            return Box3.empty()
        return Box3(points.min(axis=0), points.max(axis=0))

    # -- queries -----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.lo > self.hi))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def size(self) -> np.ndarray:
        return np.maximum(self.hi - self.lo, 0.0)

    @property
    def volume(self) -> float:
        return float(np.prod(self.size)) if not self.is_empty else 0.0

    @property
    def longest_dim(self) -> int:
        """Index of the longest axis (ties resolved to the lowest index)."""
        return int(np.argmax(self.size))

    @property
    def radius_sq(self) -> float:
        """Squared distance from center to a corner (circumsphere radius²)."""
        if self.is_empty:
            return 0.0
        half = 0.5 * self.size
        return float(np.dot(half, half))

    def contains(self, point) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(point >= self.lo) and np.all(point <= self.hi))

    def contains_box(self, other: "Box3") -> bool:
        if other.is_empty:
            return True
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def intersects(self, other: "Box3") -> bool:
        if self.is_empty or other.is_empty:
            return False
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def distance_sq(self, point) -> float:
        """Squared distance from ``point`` to the box (0 when inside)."""
        point = np.asarray(point, dtype=np.float64)
        d = np.maximum(np.maximum(self.lo - point, point - self.hi), 0.0)
        return float(np.dot(d, d))

    def farthest_distance_sq(self, point) -> float:
        """Squared distance from ``point`` to the farthest corner."""
        point = np.asarray(point, dtype=np.float64)
        d = np.maximum(np.abs(point - self.lo), np.abs(point - self.hi))
        return float(np.dot(d, d))

    def intersects_sphere(self, center, radius: float) -> bool:
        return self.distance_sq(center) <= float(radius) * float(radius)

    # -- combination -------------------------------------------------------
    def union(self, other: "Box3") -> "Box3":
        return Box3(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def union_point(self, point) -> "Box3":
        point = np.asarray(point, dtype=np.float64)
        return Box3(np.minimum(self.lo, point), np.maximum(self.hi, point))

    def expanded(self, margin: float) -> "Box3":
        return Box3(self.lo - margin, self.hi + margin)

    def split(self, dim: int, coord: float) -> tuple["Box3", "Box3"]:
        """Split into (low side, high side) along ``dim`` at ``coord``."""
        left_hi = self.hi.copy()
        left_hi[dim] = coord
        right_lo = self.lo.copy()
        right_lo[dim] = coord
        return Box3(self.lo.copy(), left_hi), Box3(right_lo, self.hi.copy())

    def octant(self, i: int) -> "Box3":
        """The ``i``-th of 8 equal-volume children (bit k of i picks hi half
        of dimension k)."""
        c = self.center
        lo = self.lo.copy()
        hi = self.hi.copy()
        for dim in range(3):
            if (i >> dim) & 1:
                lo[dim] = c[dim]
            else:
                hi[dim] = c[dim]
        return Box3(lo, hi)

    def cubified(self) -> "Box3":
        """Smallest cube with the same center that contains this box.

        Octrees prefer cubical root boxes so every node keeps aspect ratio 1.
        """
        half = float(np.max(self.size)) * 0.5
        c = self.center
        return Box3(c - half, c + half)

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, Box3):
            return NotImplemented
        if self.is_empty and other.is_empty:
            return True
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "Box3(empty)"
        return f"Box3(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


# ---------------------------------------------------------------------------
# Vectorised kernels over arrays of boxes (shape (M, 3) lo / hi pairs).
# ---------------------------------------------------------------------------

def bounding_box(points: np.ndarray, pad: float = 0.0) -> Box3:
    """Tight bounding box of an (N, 3) point cloud, optionally padded."""
    box = Box3.from_points(points)
    if pad and not box.is_empty:
        box = box.expanded(pad)
    return box


def boxes_union(lo: np.ndarray, hi: np.ndarray) -> Box3:
    """Union of M boxes given as (M, 3) lo / hi arrays."""
    if len(lo) == 0:
        return Box3.empty()
    return Box3(np.min(lo, axis=0), np.max(hi, axis=0))


def boxes_center(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return 0.5 * (np.asarray(lo) + np.asarray(hi))


def boxes_longest_dim(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(M,) array of longest-axis indices for M boxes."""
    return np.argmax(np.asarray(hi) - np.asarray(lo), axis=-1)


def boxes_contain_points(lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Boolean (M,) mask: does box i contain point i (broadcasting rules apply)."""
    points = np.asarray(points)
    return np.all((points >= lo) & (points <= hi), axis=-1)


def boxes_intersect_boxes(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> np.ndarray:
    """Pairwise (broadcast) box-box overlap test."""
    return np.all((np.asarray(lo_a) <= hi_b) & (np.asarray(lo_b) <= hi_a), axis=-1)


def point_box_distance_sq(lo: np.ndarray, hi: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance from a single point to each of M boxes -> (M,)."""
    point = np.asarray(point)
    d = np.maximum(np.maximum(lo - point, point - hi), 0.0)
    return np.einsum("...i,...i->...", d, d)


def points_boxes_distance_sq(lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances between M boxes and N points -> (M, N).

    ``lo``/``hi`` are (M, 3); ``points`` is (N, 3).  This is the hot kernel of
    the transposed traversal: one tree node's box against a whole batch of
    bucket centres, or one bucket's box against a batch of nodes.
    """
    lo = np.asarray(lo)[:, None, :]
    hi = np.asarray(hi)[:, None, :]
    p = np.asarray(points)[None, :, :]
    d = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return np.einsum("mni,mni->mn", d, d)


def boxes_box_distance_sq(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> np.ndarray:
    """Minimum squared distance between boxes A (broadcast) and box(es) B.

    Zero when they overlap.  Used by kNN pruning: a source node can be
    skipped when its box is farther from the target bucket's box than the
    current worst k-th neighbour distance.
    """
    d = np.maximum(np.maximum(np.asarray(lo_a) - hi_b, np.asarray(lo_b) - hi_a), 0.0)
    return np.einsum("...i,...i->...", d, d)
