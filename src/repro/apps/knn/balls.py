"""Fixed-radius ball searches (neighbour gathering within r).

Used by the Gadget-2-style SPH baseline (repeated fixed-ball searches while
converging each particle's smoothing length, §III-B) and by collision
detection (§IV).
"""

from __future__ import annotations

import numpy as np

from ...core import Configuration, TraversalStats, get_traverser
from ...core.util import ranges_to_indices
from ...core.visitor import Visitor
from ...geometry import point_box_distance_sq
from ...trees import Tree
from ...trees.kernels import components, expand_pair_products, pair_dist_sq

__all__ = ["BallSearchVisitor", "ball_search", "brute_force_ball"]


class BallSearchVisitor(Visitor):
    """Collects, for every target particle, all particles within its radius.

    ``radii`` is per *particle* (tree order); a source node is opened for a
    bucket when any of the bucket's particles' balls reaches its box.  Hits
    accumulate as flat ``(target_row, source_row)`` arrays;
    :meth:`neighbor_lists` sorts them into one ascending list per particle.
    """

    def __init__(self, tree: Tree, radii: np.ndarray, include_self: bool = False) -> None:
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (tree.n_particles,):
            raise ValueError("radii must be one per particle (tree order)")
        if np.any(radii < 0):
            raise ValueError("radii must be >= 0")
        self.tree = tree
        self.radii = radii
        self.include_self = include_self
        self._radii_sq = radii * radii
        self._positions = components(tree.particles.position)
        none = np.empty(0, dtype=np.int64)
        self._hits: list[tuple[np.ndarray, np.ndarray]] = [(none, none)]

    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        # every target particle's ball against its pair's source box
        per_pair = tree.pend[targets] - tree.pstart[targets]
        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        pair = np.repeat(np.arange(len(sources)), per_pair)
        box = sources[pair]
        d2 = point_box_distance_sq(tree.box_lo[box], tree.box_hi[box],
                                   tree.particles.position[rows])
        out = np.zeros(len(sources), dtype=bool)
        out[pair[d2 <= self._radii_sq[rows]]] = True
        return out

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        """A box no ball reaches holds no neighbour."""

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        t_rows, s_rows = expand_pair_products(
            tree.pstart[targets], tree.pend[targets], tree.pstart[sources], tree.pend[sources])
        hit = pair_dist_sq(self._positions, t_rows, s_rows) <= self._radii_sq[t_rows]
        if not self.include_self:
            hit &= t_rows != s_rows
        self._hits.append((t_rows[hit], s_rows[hit]))

    def neighbor_lists(self) -> list[np.ndarray]:
        """Per particle (tree order), its neighbours' indices, ascending."""
        t_rows, s_rows = (np.concatenate(part) for part in zip(*self._hits))
        order = np.lexsort((s_rows, t_rows))
        bounds = np.searchsorted(t_rows[order], np.arange(1, self.tree.n_particles))
        return np.split(s_rows[order], bounds)


def ball_search(
    tree: Tree,
    radii: np.ndarray | float,
    targets: np.ndarray | None = None,
    include_self: bool = False,
    traverser: str = Configuration.traverser,
) -> tuple[list[np.ndarray], TraversalStats]:
    """All neighbours within per-particle ``radii``; returns (lists, stats).
    The lists do not depend on the engine: each is ascending."""
    if np.isscalar(radii):
        radii = np.full(tree.n_particles, float(radii))
    visitor = BallSearchVisitor(tree, radii, include_self=include_self)
    stats = get_traverser(traverser).traverse(tree, visitor, targets)
    return visitor.neighbor_lists(), stats


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
