"""Fixed-radius ball searches (neighbour gathering within r).

Used by the Gadget-2-style SPH baseline (repeated fixed-ball searches while
converging each particle's smoothing length, §III-B), by friends-of-friends
and by ``repro serve``'s range queries.
"""

from __future__ import annotations

import numpy as np

from ...core import Configuration, TraversalStats, get_traverser
from ...core.batched import SLICE_ROWS
from ...core.util import ranges_to_indices
from ...core.visitor import Visitor
from ...geometry import point_box_distance_sq
from ...trees import Tree
from ...trees.kernels import components, expand_pair_products, pair_dist_sq
from .knn import OPEN_SLACK, Targets

__all__ = ["BallSearchVisitor", "ball_search", "range_points"]


class BallSearchVisitor(Visitor):
    """Collects, for every target row, all particles within its radius.

    ``radii`` is per target *row* (by default: per particle, tree order), or
    one for all; a source node is opened for a target when any of the target's rows' balls
    reaches its box.  Hits accumulate as flat ``(target_row, source_row)``
    arrays; :meth:`neighbor_lists` sorts them into one ascending list per
    row.  With ``keep``, a row retains only its ``keep`` smallest hits
    (``count`` stays exact), folded whenever more than ``SLICE_ROWS`` new
    hits have arrived — memory is then O(rows * keep) whatever the radii.
    """

    def __init__(self, tree: Tree, radii: np.ndarray, include_self: bool = False,
                 targets: Targets | None = None, keep: int | None = None) -> None:
        self.targets = t = targets or Targets.leaves(tree)
        radii = np.asarray(radii, dtype=np.float64)
        if radii.ndim == 0:
            radii = np.full(len(t.points), radii)
        if radii.shape != (len(t.points),):
            raise ValueError("radii must be one per target row (default: per particle, tree order)")
        if np.any(radii < 0):
            raise ValueError("radii must be >= 0")
        self.include_self = include_self or not t.own
        self.keep = keep
        #: exact hits per row, counted only when ``keep`` may drop some
        self.count = None if keep is None else np.zeros(len(radii), dtype=np.int64)
        self._radii_sq = radii * radii
        self._positions = (components if t.own else np.asarray)(tree.particles.position)
        self._target_positions = None if t.own else t.points
        none = np.empty(0, dtype=np.int64)
        self._hits: list[tuple[np.ndarray, np.ndarray]] = [(none, none)]
        self._unfolded = 0

    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        # every target row's ball against its pair's source box
        start, end = self.targets.start[targets], self.targets.end[targets]
        rows = ranges_to_indices(start, end)
        pair = np.repeat(np.arange(len(sources)), end - start)
        box = sources[pair]
        d2 = point_box_distance_sq(tree.box_lo[box], tree.box_hi[box],
                                   self.targets.points[rows])
        out = np.zeros(len(sources), dtype=bool)
        out[pair[d2 <= self._radii_sq[rows] * OPEN_SLACK]] = True
        return out

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        """A box no ball reaches holds no neighbour."""

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        t_rows, s_rows = expand_pair_products(
            self.targets.start[targets], self.targets.end[targets],
            tree.pstart[sources], tree.pend[sources])
        hit = pair_dist_sq(self._positions, t_rows, s_rows,
                           self._target_positions) <= self._radii_sq[t_rows]
        if not self.include_self:
            hit &= t_rows != s_rows
        t_hit = t_rows[hit]
        self._hits.append((t_hit, s_rows[hit]))
        if self.keep is not None:
            self.count += np.bincount(t_hit, minlength=self.count.size)
            self._unfolded += t_hit.size
            if self._unfolded > SLICE_ROWS:
                self._fold()

    def _fold(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained hits as one ``(target_row, source_row)`` pair of
        arrays sorted by row then index, cut to ``keep`` per row."""
        t_rows, s_rows = (np.concatenate(part) for part in zip(*self._hits))
        order = np.lexsort((s_rows, t_rows))
        t_rows, s_rows = t_rows[order], s_rows[order]
        if self.keep is not None:
            kept = np.arange(t_rows.size) - np.searchsorted(t_rows, t_rows) < self.keep
            t_rows, s_rows = t_rows[kept], s_rows[kept]
        self._hits, self._unfolded = [(t_rows, s_rows)], 0
        return t_rows, s_rows

    def neighbor_lists(self) -> list[np.ndarray]:
        """Per target row, its neighbours' indices, ascending."""
        t_rows, s_rows = self._fold()
        return np.split(s_rows, np.searchsorted(t_rows, np.arange(1, len(self._radii_sq))))


def ball_search(
    tree: Tree,
    radii: np.ndarray | float,
    targets: np.ndarray | None = None,
    include_self: bool = False,
    traverser: str = Configuration.traverser,
) -> tuple[list[np.ndarray], TraversalStats]:
    """All neighbours within per-particle ``radii``; returns (lists, stats).
    The lists do not depend on the engine: each is ascending."""
    visitor = BallSearchVisitor(tree, radii, include_self=include_self)
    stats = get_traverser(traverser).traverse(tree, visitor, targets)
    return visitor.neighbor_lists(), stats


def range_points(tree: Tree, points: np.ndarray, radii: np.ndarray | float,
                 max_results: int | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """All particles within ``radii[t]`` of each arbitrary point ``points[t]``:
    ``(counts, lists)``, every list ascending and cut to its ``max_results``
    smallest indices, ``counts`` exact.  One top-down frontier walk for the
    whole batch; row ``t`` is a function of that point alone."""
    targets = Targets.of_points(points)
    visitor = BallSearchVisitor(tree, radii, targets=targets, keep=max_results or tree.n_particles)
    targets.walk(tree, visitor)
    return visitor.count, visitor.neighbor_lists()

