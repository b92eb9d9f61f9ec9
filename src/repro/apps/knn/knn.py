"""k-nearest-neighbour search as an up-and-down traversal.

The Visitor keeps, per particle, its current k best squared distances; a
source node is opened only while its box is closer to the target bucket
than the bucket's worst current k-th distance.  Starting the up-and-down
walk at the target's own leaf makes that radius finite almost immediately,
and the ``done_targets`` hook stops the climb as soon as the search ball is
contained in already-visited space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import TraversalStats, get_traverser
from ...core.util import ranges_to_indices
from ...core.visitor import Visitor
from ...geometry.box import boxes_box_distance_sq
from ...trees import Tree
from ...trees.kernels import components, merge_nearest, pair_dist_sq

__all__ = ["KNNResult", "KNNVisitor", "knn_search", "brute_force_knn"]


@dataclass
class KNNResult:
    """Neighbour lists in *tree order*: row i describes particle i of
    ``tree.particles``; columns are sorted nearest-first."""

    dist_sq: np.ndarray  # (N, k)
    index: np.ndarray    # (N, k) neighbour particle indices (tree order)
    stats: TraversalStats


class KNNVisitor(Visitor):
    """Finds the k nearest *other* particles for every target particle.

    ``dist_sq``/``index`` rows are ascending in ``(dist_sq, index)`` at all
    times (see :func:`repro.trees.kernels.merge_nearest`), so ties are broken
    by particle index and a row's k-th distance is its last column."""

    def __init__(self, tree: Tree, k: int) -> None:
        n = tree.n_particles
        if not 1 <= k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {k}")
        self.tree = tree
        self.k = k
        self.dist_sq = np.full((n, k), np.inf)
        self.index = np.full((n, k), -1, dtype=np.int64)
        #: per target leaf: the worst current k-th distance in its bucket
        self.radius_sq = np.full(tree.n_nodes, np.inf)
        self._positions = components(tree.particles.position)

    # -- pruning ---------------------------------------------------------------
    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        d2 = boxes_box_distance_sq(
            tree.box_lo[sources], tree.box_hi[sources],
            tree.box_lo[targets], tree.box_hi[targets],
        )
        return d2 <= self.radius_sq[targets]

    # -- interactions -------------------------------------------------------------
    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        """Pruned nodes contribute nothing to a neighbour search."""

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        first, radius_sq = merge_nearest(
            self.dist_sq, self.index, self._positions,
            tree.pstart[targets], tree.pend[targets],
            tree.pstart[sources], tree.pend[sources],
        )
        self.radius_sq[targets[first]] = radius_sq

    # -- early exit ------------------------------------------------------------
    def done_targets(self, tree: Tree, targets: np.ndarray, path_nodes: np.ndarray) -> np.ndarray:
        """Is each bucket's search ball inside the space its walk has covered?"""
        r = np.sqrt(self.radius_sq[targets])[:, None]
        return np.all(
            (tree.box_lo[targets] - r >= tree.box_lo[path_nodes])
            & (tree.box_hi[targets] + r <= tree.box_hi[path_nodes]), axis=1)

    # -- parallel-execution protocol (repro.exec) ---------------------------
    # Every write lands on rows [pstart, pend) of a target bucket being
    # traversed (dist_sq/index) or on that leaf's radius_sq entry — so
    # disjoint target chunks touch disjoint state.
    exec_shareable = True

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

    # -- best-first support (priority traversal) ---------------------------
    def priority(self, tree: Tree, source: int, target: int) -> float:
        """Expansion key for the priority traverser: nearer nodes first, so
        the k-th distance tightens before distant subtrees are considered."""
        return float(
            boxes_box_distance_sq(
                tree.box_lo[source], tree.box_hi[source],
                tree.box_lo[target], tree.box_hi[target],
            )
        )


def knn_search(
    tree: Tree,
    k: int,
    targets: np.ndarray | None = None,
    traverser: str = "up-and-down",
    backend=None,
) -> KNNResult:
    """k nearest neighbours of every particle (or of ``targets``' buckets).

    Rows are sorted nearest-first, equal distances by neighbour index — the
    ``(dist, index)`` order of ``serve.kernels.knn_point`` and of
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
