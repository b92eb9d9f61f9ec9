"""Top-down traversal engines: per-bucket DFS and the transposed walk.

Both engines implement the same pruning semantics (open → descend;
not-open → ``node()``; opened leaf → ``leaf()``), differing only in loop
order:

* :class:`PerBucketTraverser` walks the whole tree once per target bucket —
  the classical style (ChaNGa, and the paper's "BasicTrav" ablation).  The
  working set per step is "one bucket + the frontier of the tree", but the
  tree is re-walked B times.
* :class:`TransposedTraverser` visits each tree node once, carrying the
  batch of target buckets still interested in it (the paper's
  locality-enhancing loop transformation adopted from GPU traversals
  [Jo & Kulkarni 2011]).  The working set per step is "one node + many
  buckets", so tree data is touched far fewer times (Table II).
"""

from __future__ import annotations

import numpy as np

from ..trees import Tree
from .traverser import Recorder, TraversalStats, Traverser, register_traverser
from .util import ranges_to_indices
from .visitor import Visitor

__all__ = ["PerBucketTraverser", "TransposedTraverser"]


class PerBucketTraverser(Traverser):
    """Classic depth-first walk, one full traversal per target bucket.

    The frontier is processed breadth-wise so the Visitor's batched
    ``*_sources`` hooks can amortise the per-node cost, but the visit *set*
    equals the textbook recursive DFS.
    """

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
        first_child = tree.first_child
        n_children = tree.n_children
        counts = tree.pend - tree.pstart
        root = np.array([tree.root], dtype=np.int64)

        for tgt in targets:
            tgt = int(tgt)
            tgt_count = int(counts[tgt])
            frontier = root
            while frontier.size:
                stats.nodes_visited += int(frontier.size)
                stats.opens += int(frontier.size)
                if recorder is not None:
                    recorder.on_open(tree, frontier, np.array([tgt]))
                mask = np.asarray(visitor.open_sources(tree, frontier, tgt), dtype=bool)
                closed = frontier[~mask]
                if closed.size:
                    stats.node_interactions += int(closed.size)
                    stats.pn_interactions += int(closed.size) * tgt_count
                    if recorder is not None:
                        recorder.on_node(tree, closed, np.array([tgt]))
                    visitor.node_sources(tree, closed, tgt)
                opened = frontier[mask]
                if not opened.size:
                    break
                leaf_mask = first_child[opened] == -1
                leaves = opened[leaf_mask]
                if leaves.size:
                    stats.leaf_interactions += int(leaves.size)
                    stats.pp_interactions += int(counts[leaves].sum()) * tgt_count
                    if recorder is not None:
                        recorder.on_leaf(tree, leaves, np.array([tgt]))
                    visitor.leaf_sources(tree, leaves, tgt)
                internal = opened[~leaf_mask]
                frontier = ranges_to_indices(
                    first_child[internal], first_child[internal] + n_children[internal]
                )
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
            # One source-index array per node, and only when someone listens
            # (the per-node np.array([src]) showed up in deep-tree profiles).
            src_arr = np.array([src]) if recorder is not None else None
            if recorder is not None:
                recorder.on_open(tree, src_arr, active)
            mask = np.asarray(visitor.open_batch(tree, src, active), dtype=bool)
            closed = active[~mask]
            if closed.size:
                stats.node_interactions += int(closed.size)
                stats.pn_interactions += int(counts[closed].sum())
                if recorder is not None:
                    recorder.on_node(tree, src_arr, closed)
                visitor.node_batch(tree, src, closed)
            opened = active[mask]
            if not opened.size:
                continue
            if first_child[src] == -1:
                stats.leaf_interactions += int(opened.size)
                stats.pp_interactions += int(counts[src]) * int(counts[opened].sum())
                if recorder is not None:
                    recorder.on_leaf(tree, src_arr, opened)
                visitor.leaf_batch(tree, src, opened)
            else:
                fc = int(first_child[src])
                for c in range(fc, fc + int(n_children[src])):
                    stack.append((c, opened))
        return stats


register_traverser(TransposedTraverser.name, TransposedTraverser, top_down=True)
register_traverser(PerBucketTraverser.name, PerBucketTraverser, top_down=True)
# Alias matching the paper's Fig 10 label for the per-bucket style.
register_traverser("basic", PerBucketTraverser)
