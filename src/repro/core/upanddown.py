"""Up-and-down traversal (paper §II-A-2), round-synchronous.

"A second type of traversal, called up-and-down, does a top-down traversal
iteratively from each node on the path from the leaf to the root.  This
traversal is usually reserved for pruning criteria that can change during
the traversal, as with k-nearest neighbors."

Starting at the target's own leaf guarantees the nearest candidates are seen
first, so the Visitor's pruning radius tightens before distant subtrees are
considered.  When climbing, only the *siblings* of the already-visited child
are descended, so no node is evaluated twice.  The Visitor's
``done_targets`` hook allows early exit once the criterion is satisfied
(e.g. the kNN ball no longer crosses the visited region's boundary).

The walks of different target buckets never read each other's state, so they
advance together.  In round *r* every still-active target descends from the
unvisited siblings of its path node at height *r* (round 0: its own leaf):
one target-major pair frontier for all of them, walked to the bottom by the
batched engine's :func:`~repro.core.batched.walk_frontier` — same hooks, same
segment and slice budgets.  Then ``done_targets`` retires the finished
targets and the rest climb one parent.  A target's pairs still reach the
visitor in the order of a walk of that target alone (round by round, level
by level, a level's open test after the leaves of the levels above), so what
it computes cannot depend on which other targets share the call.
"""

from __future__ import annotations

import numpy as np

from ..trees import Tree
from .batched import walk_frontier
from .traverser import Recorder, TraversalStats, Traverser, register_traverser
from .util import ranges_to_indices
from .visitor import Visitor

__all__ = ["UpAndDownTraverser"]


class UpAndDownTraverser(Traverser):
    name = "up-and-down"

    def _traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        active = self._resolve_targets(tree, targets).astype(np.int64, copy=False)
        stats = TraversalStats(targets=len(active))
        parent = tree.parent
        path = sources = pair_targets = active
        while active.size:
            if sources.size:
                walk_frontier(tree, visitor, sources, pair_targets, stats, recorder)
            climbing = ~np.asarray(visitor.done_targets(tree, active, path), dtype=bool)
            climbing &= parent[path] != -1
            active, visited = active[climbing], path[climbing]
            path = parent[visited]
            first, nc = tree.first_child[path], tree.n_children[path]
            sources = ranges_to_indices(first, first + nc)
            unvisited = sources != np.repeat(visited, nc)
            sources, pair_targets = sources[unvisited], np.repeat(active, nc)[unvisited]
        return stats


register_traverser(UpAndDownTraverser.name, UpAndDownTraverser)
