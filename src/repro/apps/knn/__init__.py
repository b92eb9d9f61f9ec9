"""k-nearest-neighbour searches on spatial trees.

The paper's motivating second workload (§I) and the neighbour engine behind
its SPH application (§III-B): ParaTreeT fetches "a fixed number of
neighbors using the k-nearest neighbors algorithm" with an up-and-down
traversal whose pruning radius tightens as closer neighbours are found.

Also provides fixed-radius ball searches — the primitive of
friends-of-friends and of the Gadget-2-style smoothing-length iteration
baseline.

Targets need not be tree leaves: ``knn_points``/``range_points`` answer a
batch of arbitrary query points with the same visitors on the same pair
frontier (what ``repro serve`` executes).
"""

from .knn import KNNResult, KNNVisitor, Targets, knn_points, knn_search, brute_force_knn
from .balls import BallSearchVisitor, ball_search, range_points
from .driver import KNNDriver

__all__ = [
    "KNNDriver",
    "KNNResult",
    "KNNVisitor",
    "Targets",
    "knn_points",
    "knn_search",
    "brute_force_knn",
    "BallSearchVisitor",
    "ball_search",
    "range_points",
]
