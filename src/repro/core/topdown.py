"""The two reference visit orderings: per-bucket DFS and the transposed walk.

Both deliver the pair set of :class:`~repro.core.batched.BatchedTraverser`
(open → descend; not-open → ``node``; opened leaf → ``leaf``) to the same
Visitor pair hooks and differ only in schedule, which is what a
:class:`~repro.core.traverser.Recorder` — the memsim traces of Table II,
Fig 10's "BasicTrav" — observes:

* :class:`PerBucketTraverser` walks the whole tree once per target bucket —
  the classical style (ChaNGa).  The working set per step is "one bucket +
  the frontier of the tree", but the tree is re-walked B times.
* :class:`TransposedTraverser` visits each tree node once, carrying the
  batch of target buckets still interested in it (the paper's
  locality-enhancing loop transformation adopted from GPU traversals
  [Jo & Kulkarni 2011]).  The working set per step is "one node + many
  buckets", so tree data is touched far fewer times (Table II).
"""

from __future__ import annotations

import numpy as np

from ..trees import Tree
from .batched import walk_frontier
from .traverser import Recorder, TraversalStats, Traverser, register_traverser
from .visitor import Visitor

__all__ = ["PerBucketTraverser", "TransposedTraverser"]


class PerBucketTraverser(Traverser):
    """One full frontier walk per target bucket: breadth-wise per level, the
    visit *set* of the textbook recursive DFS, and — a chunk of one target
    being one more cut — the bits of the batched engine."""

    name = "per-bucket"

    def _traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        targets = self._resolve_targets(tree, targets)
        stats = TraversalStats(targets=len(targets))
        root = np.array([tree.root], dtype=np.int64)
        for t in range(len(targets)):
            walk_frontier(tree, visitor, root, targets[t:t + 1], stats, recorder)
        return stats


class TransposedTraverser(Traverser):
    """ParaTreeT-style walk: each tree node once, against a target batch.

    Depth-first over source nodes; the active-target set can only shrink
    with depth, so deep (expensive) nodes see few targets.
    """

    name = "transposed"

    def _traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        targets = self._resolve_targets(tree, targets)
        stats = TraversalStats(targets=len(targets))
        if not targets.size:
            return stats
        first_child = tree.first_child
        n_children = tree.n_children
        counts = tree.pend - tree.pstart

        stack: list[tuple[int, np.ndarray]] = [(tree.root, targets)]
        while stack:
            src, active = stack.pop()
            stats.nodes_visited += 1
            stats.opens += int(active.size)
            # the pair hooks see this one source broadcast over its targets
            pair_src = np.broadcast_to(np.array([src]), active.shape)
            if recorder is not None:
                recorder.on_open_pairs(tree, pair_src, active)
            mask = np.asarray(visitor.open_pairs(tree, pair_src, active), dtype=bool)
            closed = active[~mask]
            if closed.size:
                stats.node_interactions += int(closed.size)
                stats.pn_interactions += int(counts[closed].sum())
                if recorder is not None:
                    recorder.on_node_pairs(tree, pair_src[:closed.size], closed)
                visitor.node_pairs(tree, pair_src[:closed.size], closed)
            opened = active[mask]
            if not opened.size:
                continue
            if first_child[src] == -1:
                stats.leaf_interactions += int(opened.size)
                stats.pp_interactions += int(counts[src]) * int(counts[opened].sum())
                if recorder is not None:
                    recorder.on_leaf_pairs(tree, pair_src[:opened.size], opened)
                visitor.leaf_pairs(tree, pair_src[:opened.size], opened)
            else:
                fc = int(first_child[src])
                for c in range(fc, fc + int(n_children[src])):
                    stack.append((c, opened))
        return stats


register_traverser(TransposedTraverser.name, TransposedTraverser, top_down=True)
register_traverser(PerBucketTraverser.name, PerBucketTraverser, top_down=True)
# Alias matching the paper's Fig 10 label for the per-bucket style.
register_traverser("basic", PerBucketTraverser)
