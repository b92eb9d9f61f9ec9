"""kNN as a pipeline Driver, so neighbour searches run through the full
decompose/build/traverse cycle — and therefore checkpoint and resume like
every other application."""

from __future__ import annotations

import numpy as np

from ...core import Configuration, Driver
from ...trees import Tree
from .knn import KNNResult, KNNVisitor

__all__ = ["KNNDriver"]


class KNNDriver(Driver):
    """Each iteration: k-nearest-neighbour search over the whole set, an
    up-and-down traversal started through ``partitions()`` (so the
    iteration's recorders and execution backend see it like any other).
    ``self.result`` holds the last iteration's neighbour lists (tree order)."""

    def __init__(self, config: Configuration | None = None, k: int = 8) -> None:
        super().__init__(config)
        self.k = k
        self.result: KNNResult | None = None

    def check_particles(self, particles) -> None:
        if not 1 <= self.k <= len(particles) - 1:
            raise ValueError(f"k must be in [1, {len(particles) - 1}], got {self.k}")

    def prepare(self, tree: Tree) -> None:
        self.result = None

    def traversal(self, iteration: int) -> None:
        visitor = KNNVisitor(self.tree, self.k)
        stats = self.partitions().start_up_and_down(visitor)
        self.result = KNNResult(visitor.dist_sq, visitor.index, stats)

    def kth_distances(self) -> np.ndarray:
        """Distance to the k-th neighbour per particle (tree order)."""
        assert self.result is not None
        return np.sqrt(self.result.dist_sq[:, -1])
