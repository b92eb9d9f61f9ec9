"""k-nearest-neighbour search as an up-and-down traversal.

The Visitor keeps, per particle, its current k best squared distances; a
source node is opened only while its box is closer to the target bucket
than the bucket's worst current k-th distance.  Starting the up-and-down
walk at the target's own leaf makes that radius finite almost immediately,
and the ``done_targets`` hook stops the climb as soon as the search ball is
contained in already-visited space.

Who searches need not be the tree (the paper's Partitions against its
Subtrees): the visitors read their target side from a :class:`Targets`
table — by default the tree's own leaves, or a batch of arbitrary query
points (:func:`knn_points`, what ``repro serve`` answers with), which have
no leaf to start from and so get their first radius from a seed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ...core import TraversalStats, get_traverser
from ...core.batched import walk_frontier
from ...core.util import ranges_to_indices
from ...core.visitor import Visitor
from ...geometry.box import boxes_box_distance_sq, point_box_distance_sq
from ...trees import Tree
from ...trees.kernels import components, merge_nearest, pair_dist_sq

__all__ = ["KNNResult", "KNNVisitor", "Targets", "knn_search", "knn_points", "brute_force_knn"]


#: A box distance is summed by einsum, a neighbour distance by
#: :func:`~repro.trees.kernels.pair_dist_sq`; each is within a few ulp of the
#: truth, so a box can read farther than a particle inside it.  With ties at
#: the k-th place (duplicates) the open test then has to err on the open side.
OPEN_SLACK = 1.0 + 16 * np.finfo(np.float64).eps


class Targets(NamedTuple):
    """The searching side of a neighbour walk: target ``t`` has the box
    ``[box_lo[t], box_hi[t]]`` and the rows ``[start[t], end[t])`` of
    ``points`` (and of every per-row result array)."""

    box_lo: np.ndarray
    box_hi: np.ndarray
    start: np.ndarray
    end: np.ndarray
    points: np.ndarray   # (rows, 3)
    own: bool            # the rows are the tree's particles: a row skips itself

    @classmethod
    def leaves(cls, tree: Tree) -> "Targets":
        """Target ``t`` = tree node ``t`` (what the engines traverse for)."""
        return cls(tree.box_lo, tree.box_hi, tree.pstart, tree.pend,
                   tree.particles.position, True)

    @classmethod
    def of_points(cls, points: np.ndarray) -> "Targets":
        """Target ``t`` = query row ``t``: a point box, one row."""
        points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
        rows = np.arange(len(points))
        return cls(points, points, rows, rows + 1, points, False)

    def walk(self, tree: Tree, visitor: Visitor) -> TraversalStats:
        """One top-down frontier walk from a ``(root, t)`` pair per target."""
        each = np.arange(len(self.start))
        stats = TraversalStats(targets=each.size)
        walk_frontier(tree, visitor, np.zeros_like(each), each, stats, None, self.end - self.start)
        return stats


@dataclass
class KNNResult:
    """Neighbour lists in *tree order*: row i describes particle i of
    ``tree.particles`` (:func:`knn_points`: query point i); columns are
    sorted nearest-first."""

    dist_sq: np.ndarray  # (rows, k)
    index: np.ndarray    # (rows, k) neighbour particle indices (tree order)
    stats: TraversalStats


class KNNVisitor(Visitor):
    """Finds the k nearest *other* particles for every target particle.

    ``dist_sq``/``index`` rows are ascending in ``(dist_sq, index)`` at all
    times (see :func:`repro.trees.kernels.merge_nearest`), so ties are broken
    by particle index and a row's k-th distance is its last column."""

    def __init__(self, tree: Tree, k: int, targets: Targets | None = None) -> None:
        self.targets = t = targets or Targets.leaves(tree)
        most = tree.n_particles - t.own
        if not 1 <= k <= most:
            raise ValueError(f"k must be in [1, {most}], got {k}")
        self.tree = tree
        self.k = k
        self.dist_sq = np.full((len(t.points), k), np.inf)
        self.index = np.full((len(t.points), k), -1, dtype=np.int64)
        #: per target: an upper bound of the worst k-th distance among its
        #: rows — the seed's, then the worst current one once that is less
        self.radius_sq = np.full(len(t.start), np.inf)
        # a walk for every particle gathers from SoA columns made once (an
        # O(N) copy); a batch of points gathers the few rows it meets
        self._positions = (components if t.own else np.asarray)(tree.particles.position)
        self._target_positions = None if t.own else t.points

    # -- pruning ---------------------------------------------------------------
    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        d2 = boxes_box_distance_sq(
            tree.box_lo[sources], tree.box_hi[sources],
            self.targets.box_lo[targets], self.targets.box_hi[targets],
        )
        return d2 <= self.radius_sq[targets] * OPEN_SLACK

    # -- interactions -------------------------------------------------------------
    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        """Pruned nodes contribute nothing to a neighbour search."""

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        first, radius_sq = merge_nearest(
            self.dist_sq, self.index, self._positions,
            self.targets.start[targets], self.targets.end[targets],
            tree.pstart[sources], tree.pend[sources], self._target_positions,
        )
        np.minimum.at(self.radius_sq, targets[first], radius_sq)   # never above the seed

    def seed_radius(self) -> None:
        """Bound every one-row target's k-th distance from above without a
        walk: descend to the nearest child until a leaf (one numpy step per
        level for all targets), then take the k-th distance inside a window
        of tree-order rows around that leaf.  Any k particles bound the k-th
        distance, so a poor window costs work, never correctness."""
        tree, points = self.tree, self.targets.points
        node = np.zeros(len(points), dtype=np.int64)
        while (inner := np.flatnonzero(tree.first_child[node] != -1)).size:
            first, nc = tree.first_child[node[inner]], tree.n_children[node[inner]]
            # a short block repeats its last child: never the first minimum
            kids = first[:, None] + np.minimum(np.arange(nc.max()), nc[:, None] - 1)
            d2 = point_box_distance_sq(tree.box_lo[kids], tree.box_hi[kids], points[inner, None])
            node[inner] = kids[np.arange(inner.size), d2.argmin(axis=1)]
        n = tree.n_particles
        width = min(n, 2 * self.k + tree.bucket_size)
        start = np.clip((tree.pstart[node] + tree.pend[node] - width) // 2, 0, n - width)
        d2 = pair_dist_sq(self._positions, np.arange(len(points))[:, None],
                          start[:, None] + np.arange(width), self._target_positions)
        self.radius_sq = np.partition(d2, self.k - 1, axis=1)[:, self.k - 1]

    # -- early exit ------------------------------------------------------------
    def done_targets(self, tree: Tree, targets: np.ndarray, path_nodes: np.ndarray) -> np.ndarray:
        """Is each bucket's search ball inside the space its walk has covered?"""
        r = np.sqrt(self.radius_sq[targets])[:, None]
        return np.all(
            (self.targets.box_lo[targets] - r >= tree.box_lo[path_nodes])
            & (self.targets.box_hi[targets] + r <= tree.box_hi[path_nodes]), axis=1)

    # -- parallel-execution protocol (repro.exec) ---------------------------
    # Every write lands on rows [pstart, pend) of a target bucket being
    # traversed (dist_sq/index) or on that leaf's radius_sq entry — so
    # disjoint target chunks touch disjoint state.
    def exec_config(self) -> dict:
        return {"k": self.k}

    @classmethod
    def exec_rebuild(cls, tree: Tree, arrays: dict[str, np.ndarray], config: dict) -> "KNNVisitor":
        return cls(tree, config["k"])

    def exec_collect(self, tree: Tree, targets: np.ndarray) -> dict[str, np.ndarray]:
        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        return {"dist_sq": self.dist_sq[rows], "index": self.index[rows],
                "radius_sq": self.radius_sq[targets]}

    def exec_apply(self, tree: Tree, targets: np.ndarray, outputs: dict[str, np.ndarray]) -> None:
        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        self.dist_sq[rows] = outputs["dist_sq"]
        self.index[rows] = outputs["index"]
        self.radius_sq[targets] = outputs["radius_sq"]


def knn_search(
    tree: Tree,
    k: int,
    targets: np.ndarray | None = None,
    traverser: str = "up-and-down",
    backend=None,
) -> KNNResult:
    """k nearest neighbours of every particle (or of ``targets``' buckets).

    Rows are sorted nearest-first, equal distances by neighbour index — the
    ``(dist, index)`` order of :func:`knn_points` and of
    :func:`brute_force_knn`.  Neighbour indices refer to tree order; use
    ``tree.particles.orig_index`` to translate back to input labels.
    ``backend`` (a :class:`~repro.exec.ExecutionBackend`) runs the search
    over target-bucket chunks concurrently, bit-identically to serial.
    """
    visitor = KNNVisitor(tree, k)
    if backend is not None:
        stats = backend.run(tree, traverser, visitor, targets)
    else:
        stats = get_traverser(traverser).traverse(tree, visitor, targets)
    return KNNResult(dist_sq=visitor.dist_sq, index=visitor.index, stats=stats)


def knn_points(tree: Tree, points: np.ndarray, k: int) -> KNNResult:
    """k nearest particles of each of Q arbitrary points: row ``t`` describes
    ``points[t]``, in ``(dist_sq, index)`` order, and is a function of that
    point alone — not of which other points share the call.  One seeded
    top-down frontier walk for the whole batch; a particle sitting on a
    query point is its neighbour at distance 0."""
    targets = Targets.of_points(points)
    visitor = KNNVisitor(tree, k, targets)
    visitor.seed_radius()
    return KNNResult(visitor.dist_sq, visitor.index, stats=targets.walk(tree, visitor))


def brute_force_knn(positions: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference O(N²) kNN (excluding self): returns (dist_sq, index), rows
    in ``(dist_sq, index)`` order."""
    positions = np.asarray(positions)
    n = len(positions)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}]")
    every = np.arange(n)
    d2 = pair_dist_sq(positions, every[:, None], every[None, :])
    np.fill_diagonal(d2, np.inf)
    # a stable sort of each row by distance leaves equal distances by index
    sel = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(d2, sel, axis=1), sel
