"""Axis-aligned bounding boxes in 3-D.

The scalar :class:`Box3` is used at API boundaries (tree nodes expose their
box through it); the array functions below are the vectorised kernels the
traversals actually run.  A box is *empty* when ``lo > hi`` in any dimension;
``Box3()`` is the canonical empty box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box3",
    "bounding_box",
    "point_box_distance_sq",
]


@dataclass(eq=False)
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
    def from_points(points: np.ndarray) -> "Box3":
        points = np.asarray(points, dtype=np.float64)
        if points.size == 0:
            return Box3()
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

    def distance_sq(self, point) -> float:
        """Squared distance from ``point`` to the box (0 when inside)."""
        point = np.asarray(point, dtype=np.float64)
        d = np.maximum(np.maximum(self.lo - point, point - self.hi), 0.0)
        return float(np.dot(d, d))

    def intersects_sphere(self, center, radius: float) -> bool:
        return self.distance_sq(center) <= float(radius) * float(radius)

    # -- combination -------------------------------------------------------
    def expanded(self, margin: float) -> "Box3":
        return Box3(self.lo - margin, self.hi + margin)

    def cubified(self) -> "Box3":
        """Smallest cube with the same center that contains this box.

        Octrees prefer cubical root boxes so every node keeps aspect ratio 1.
        """
        half = float(np.max(self.size)) * 0.5
        c = self.center
        return Box3(c - half, c + half)

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


def point_box_distance_sq(lo: np.ndarray, hi: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared distance from a single point to each of M boxes -> (M,)."""
    point = np.asarray(point)
    d = np.maximum(np.maximum(lo - point, point - hi), 0.0)
    return np.einsum("...i,...i->...", d, d)


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
