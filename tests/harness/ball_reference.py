"""Brute-force O(N²) oracles of the ball-family searches: fixed-radius
neighbour lists and friends-of-friends labels."""

from __future__ import annotations

import numpy as np

from repro.apps.fof import UnionFind
from repro.trees.kernels import pair_dist_sq

__all__ = ["brute_force_ball", "brute_force_fof"]


def brute_force_ball(
    positions: np.ndarray, radii: np.ndarray | float, include_self: bool = False
) -> list[np.ndarray]:
    """Reference O(N²) ball search."""
    positions = np.asarray(positions)
    n = len(positions)
    if np.isscalar(radii):
        radii = np.full(n, float(radii))
    every = np.arange(n)
    hits = pair_dist_sq(positions, every[:, None], every[None, :]) <= (radii * radii)[:, None]
    if not include_self:
        np.fill_diagonal(hits, False)
    return [np.flatnonzero(row) for row in hits]


def brute_force_fof(positions: np.ndarray, linking_length: float) -> np.ndarray:
    """Reference O(N²) FoF labels (same dense-id convention)."""
    positions = np.asarray(positions)
    n = len(positions)
    uf = UnionFind(n)
    ll2 = linking_length**2
    for i in range(n):
        d2 = ((positions[i + 1 :] - positions[i]) ** 2).sum(axis=1)
        for j in np.flatnonzero(d2 <= ll2):
            uf.union(i, i + 1 + int(j))
    return uf.labels()
