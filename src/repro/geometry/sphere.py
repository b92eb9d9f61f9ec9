"""Spheres, used by opening criteria (the gravity MAC) and ball searches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box import point_box_distance_sq

__all__ = ["Sphere"]


@dataclass
class Sphere:
    """A sphere given by ``center`` (3,) and ``radius``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.radius = float(self.radius)
        if self.radius < 0:
            raise ValueError(f"sphere radius must be >= 0, got {self.radius}")

    @property
    def radius_sq(self) -> float:
        return self.radius * self.radius

    def contains(self, point) -> bool:
        d = np.asarray(point, dtype=np.float64) - self.center
        return bool(np.dot(d, d) <= self.radius_sq)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        d = np.asarray(points, dtype=np.float64) - self.center
        return np.einsum("...i,...i->...", d, d) <= self.radius_sq

    def intersects_box(self, lo, hi) -> bool:
        d = np.maximum(np.maximum(np.asarray(lo) - self.center, self.center - np.asarray(hi)), 0.0)
        return bool(np.dot(d, d) <= self.radius_sq)

    def intersects_sphere(self, other: "Sphere") -> bool:
        d = other.center - self.center
        r = self.radius + other.radius
        return bool(np.dot(d, d) <= r * r)


def sphere_box_distance_sq(center: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from sphere center(s) to box(es); broadcasting."""
    return point_box_distance_sq(lo, hi, center)
