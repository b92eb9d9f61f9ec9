"""kNN as a pipeline Driver, so neighbour searches run through the full
decompose/build/traverse cycle — and therefore checkpoint and resume like
every other application."""

from __future__ import annotations

import numpy as np

from ...core import Configuration, Driver
from ...trees import Tree
from .knn import KNNResult, knn_search

__all__ = ["KNNDriver"]


class KNNDriver(Driver):
    """Each iteration: k-nearest-neighbour search over the whole set via
    the up-and-down engine.  ``self.result`` holds the last iteration's
    neighbour lists (tree order)."""

    def __init__(self, config: Configuration | None = None, k: int = 8) -> None:
        super().__init__(config)
        self.k = k
        self.result: KNNResult | None = None

    def prepare(self, tree: Tree) -> None:
        self.result = None

    def traversal(self, iteration: int) -> None:
        self.result = knn_search(self.tree, k=self.k, backend=self.exec_backend)
        self.last_stats.merge(self.result.stats)
        if self.exec_backend is not None:
            # knn_search drives the backend directly (not via partitions()),
            # so fold its latency/cache/supervision into the iteration here
            self.exec_runs.absorb(self.exec_backend)

    def kth_distances(self) -> np.ndarray:
        """Distance to the k-th neighbour per particle (tree order)."""
        assert self.result is not None
        return np.sqrt(self.result.dist_sq[:, -1])
