"""Friends-of-Friends via tree ball searches + union-find."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...particles import ParticleSet
from ...trees import Tree, build_tree
from ..knn.balls import ball_search

__all__ = ["UnionFind", "FoFResult", "friends_of_friends"]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def labels(self) -> np.ndarray:
        """Dense group ids in [0, n_groups)."""
        roots = np.array([self.find(i) for i in range(len(self.parent))])
        _, labels = np.unique(roots, return_inverse=True)
        return labels


@dataclass
class FoFResult:
    """Group assignment in *tree order* plus per-group summaries."""

    labels: np.ndarray        # (N,) dense group id per particle
    group_sizes: np.ndarray   # (G,)
    group_com: np.ndarray     # (G, 3) mass-weighted centres
    group_mass: np.ndarray    # (G,)

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    def groups_larger_than(self, n_min: int) -> np.ndarray:
        """Ids of groups with at least ``n_min`` members (halos)."""
        return np.flatnonzero(self.group_sizes >= n_min)


def friends_of_friends(
    particles_or_tree: ParticleSet | Tree,
    linking_length: float,
    bucket_size: int = 16,
) -> FoFResult:
    """Group particles chained by separations <= ``linking_length``.

    Classic cosmology convention: the linking length is usually ``b`` times
    the mean interparticle spacing with b ≈ 0.2; pass the product.
    """
    if linking_length <= 0:
        raise ValueError(f"linking_length must be > 0, got {linking_length}")
    if isinstance(particles_or_tree, Tree):
        tree = particles_or_tree
    else:
        tree = build_tree(particles_or_tree, tree_type="oct", bucket_size=bucket_size)
    n = tree.n_particles
    lists, _ = ball_search(tree, linking_length, include_self=False)
    uf = UnionFind(n)
    for i, nbrs in enumerate(lists):
        for j in nbrs:
            uf.union(i, int(j))
    labels = uf.labels()

    n_groups = int(labels.max()) + 1 if n else 0
    sizes = np.bincount(labels, minlength=n_groups)
    mass = np.zeros(n_groups)
    np.add.at(mass, labels, tree.particles.mass)
    com = np.zeros((n_groups, 3))
    np.add.at(com, labels, tree.particles.mass[:, None] * tree.particles.position)
    with np.errstate(divide="ignore", invalid="ignore"):
        com = np.where(mass[:, None] > 0, com / mass[:, None], 0.0)
    return FoFResult(labels=labels, group_sizes=sizes, group_com=com, group_mass=mass)

