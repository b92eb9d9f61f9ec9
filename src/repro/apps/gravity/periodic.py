"""Periodic-boundary Barnes-Hut gravity (replica summation).

Cosmological volumes are periodic; production codes handle the infinite
image sum with Ewald summation (ChaNGa, Gadget).  This module implements
the direct replica expansion: the source tree is re-traversed once per
periodic image offset within ``n_images`` boxes, shifting every source
centroid/particle by the image vector through the visitor's
``_pair_frame``.  The truncated sum is exact with respect to brute-force
replica summation (tested to BH accuracy); the untruncated periodic limit
— which also cancels the super-cluster tidal field the truncation leaves
behind — would require full Ewald summation and is out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ...core import Configuration, TraversalStats, get_traverser
from ...particles import ParticleSet
from ...trees import Tree, build_tree
from .centroid import compute_centroid_arrays
from .visitor import GravityVisitor

__all__ = ["PeriodicGravityResult", "compute_gravity_periodic", "minimum_image"]


def minimum_image(displacements: np.ndarray, box_size: float) -> np.ndarray:
    """Wrap displacement vectors into [-L/2, L/2) per component."""
    L = float(box_size)
    return displacements - L * np.round(np.asarray(displacements) / L)


class _ShiftedGravityVisitor(GravityVisitor):
    """GravityVisitor whose sources appear translated by ``offset``.

    The shift enters in exactly two places, both through ``_pair_frame``:
    MAC sphere centres move by ``+offset``, and the kernels see the
    *targets* moved by ``-offset`` — relative separations then equal
    (source + offset) - target with every kernel reused unchanged.
    """

    def __init__(self, *args, offset=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offset = np.zeros(3) if offset is None else np.asarray(offset, float)

    def _pair_frame(self):
        return (self.tree.particles.position - self.offset,
                self.arrays.centroid + self.offset)


@dataclass
class PeriodicGravityResult:
    tree: Tree
    accel: np.ndarray       # input order
    stats: TraversalStats
    n_image_cells: int


def compute_gravity_periodic(
    particles: ParticleSet,
    box_size: float,
    theta: float = 0.6,
    G: float = 1.0,
    softening: float = 0.0,
    n_images: int = 1,
    bucket_size: int = 16,
    traverser: str = Configuration.traverser,
    subtract_mean_field: bool = True,
) -> PeriodicGravityResult:
    """Barnes-Hut accelerations with periodic images out to ``n_images``
    boxes in each direction ((2n+1)³ replicas).

    ``subtract_mean_field`` removes the average acceleration (the uniform
    background's net pull, which must vanish in an infinite periodic
    system but survives truncation of the image sum).
    """
    if box_size <= 0:
        raise ValueError("box_size must be > 0")
    if n_images < 0:
        raise ValueError("n_images must be >= 0")
    tree = build_tree(particles, tree_type="oct", bucket_size=bucket_size)
    arrays = compute_centroid_arrays(tree, theta=theta)
    engine = get_traverser(traverser)
    total_stats = TraversalStats()
    accel = np.zeros((tree.n_particles, 3))

    shifts = list(itertools.product(range(-n_images, n_images + 1), repeat=3))
    for shift in shifts:
        offset = np.asarray(shift, dtype=np.float64) * box_size
        visitor = _ShiftedGravityVisitor(
            tree, arrays, G=G, softening=softening, offset=offset
        )
        stats = engine.traverse(tree, visitor)
        total_stats.merge(stats)
        accel += visitor.accel

    if subtract_mean_field:
        accel -= accel.mean(axis=0)

    return PeriodicGravityResult(
        tree=tree,
        accel=tree.particles.scatter_to_input_order(accel),
        stats=total_stats,
        n_image_cells=len(shifts),
    )
