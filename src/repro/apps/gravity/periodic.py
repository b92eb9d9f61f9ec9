"""Periodic-boundary Barnes-Hut gravity (replica summation).

Cosmological volumes are periodic; production codes handle the infinite
image sum with Ewald summation (ChaNGa, Gadget).  This module implements
the direct replica expansion: the source tree is re-traversed once per
periodic image offset within ``n_images`` boxes, shifting every source
centroid/particle by the image vector through the visitor's ``offset``
hook.  The truncated sum is exact with respect to brute-force replica
summation (tested to BH accuracy); the untruncated periodic limit —
which also cancels the super-cluster tidal field the truncation leaves
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

    The shift enters in exactly two places: the MAC sphere centre used by
    ``open`` and the source coordinates used by the kernels.  Implemented
    by translating the *targets* the other way, which reuses every batched
    kernel unchanged.
    """

    def __init__(self, *args, offset=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.offset = np.zeros(3) if offset is None else np.asarray(offset, float)

    # Shift the opening test: a source at c appears at c + offset.
    def open_batch(self, tree, source, targets):
        from ...geometry import boxes_intersect_sphere

        return boxes_intersect_sphere(
            tree.box_lo[targets],
            tree.box_hi[targets],
            self.arrays.centroid[source] + self.offset,
            self.arrays.open_radius_sq[source],
        )

    def open_sources(self, tree, sources, target):
        from ...geometry import spheres_intersect_box

        return spheres_intersect_box(
            self.arrays.centroid[sources] + self.offset,
            self.arrays.open_radius_sq[sources],
            tree.box_lo[target],
            tree.box_hi[target],
        )

    # The pair hooks (batched engine) take the same two shifts: target
    # positions moved by -offset, MAC centres by +offset.
    def _pair_frame(self):
        return (self.tree.particles.position - self.offset,
                self.arrays.centroid + self.offset)

    # Shift the kernels by moving the targets the opposite way; the
    # resulting relative separations equal (source + offset) - target.
    def _apply_node(self, source, idx):
        from .kernels import pairwise_potential, point_mass_accel

        pos = self.tree.particles.position[idx] - self.offset
        self.accel[idx] += point_mass_accel(
            pos,
            self.arrays.centroid[source],
            float(self.arrays.mass[source]),
            self.G,
            self.softening,
        )
        if self.potential is not None:
            self.potential[idx] += pairwise_potential(
                pos,
                self.arrays.centroid[source][None, :],
                np.array([self.arrays.mass[source]]),
                self.G,
                self.softening,
            )

    def _apply_leaf(self, source, idx):
        from .kernels import pairwise_accel, pairwise_potential

        s, e = int(self.tree.pstart[source]), int(self.tree.pend[source])
        tgt = self.tree.particles.position[idx] - self.offset
        self.accel[idx] += pairwise_accel(
            tgt,
            self.tree.particles.position[s:e],
            self.tree.particles.mass[s:e],
            self.G,
            self.softening,
        )
        if self.potential is not None:
            self.potential[idx] += pairwise_potential(
                tgt,
                self.tree.particles.position[s:e],
                self.tree.particles.mass[s:e],
                self.G,
                self.softening,
            )

    def node_sources(self, tree, sources, target):
        from .kernels import pairwise_accel, pairwise_potential

        idx = np.arange(tree.pstart[target], tree.pend[target])
        pos = tree.particles.position[idx] - self.offset
        self.accel[idx] += pairwise_accel(
            pos, self.arrays.centroid[sources], self.arrays.mass[sources],
            self.G, self.softening,
        )
        if self.potential is not None:
            self.potential[idx] += pairwise_potential(
                pos, self.arrays.centroid[sources], self.arrays.mass[sources],
                self.G, self.softening,
            )

    def leaf_sources(self, tree, sources, target):
        from ...core.util import ranges_to_indices
        from .kernels import pairwise_accel, pairwise_potential

        idx = np.arange(tree.pstart[target], tree.pend[target])
        src_idx = ranges_to_indices(tree.pstart[sources], tree.pend[sources])
        tgt = tree.particles.position[idx] - self.offset
        self.accel[idx] += pairwise_accel(
            tgt, tree.particles.position[src_idx], tree.particles.mass[src_idx],
            self.G, self.softening,
        )
        if self.potential is not None:
            self.potential[idx] += pairwise_potential(
                tgt, tree.particles.position[src_idx], tree.particles.mass[src_idx],
                self.G, self.softening,
            )


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
