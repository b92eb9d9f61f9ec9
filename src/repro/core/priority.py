"""Priority-driven traversal (paper §II-A-2).

"Users may implement their own traversal types using the Traverser
interface, such as a priority-driven traversal for ray tracing."

This built-in implements that suggestion: instead of depth-first order,
nodes are expanded best-first from a heap keyed by a visitor-supplied
priority (smaller = sooner).  Visitors that tighten a cut-off as results
arrive (first-hit ray queries, nearest-object searches) terminate much
earlier under this order, because the most promising subtrees are examined
before the long tail is ever touched.

Visitors drive it through two extra hooks:

* ``priority(tree, source, target) -> float`` — expansion key (e.g. the
  ray-entry distance of the node's box);
* ``done(target)`` — consulted between expansions; True stops the target's
  traversal (e.g. a confirmed hit closer than everything still queued).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..trees import Tree
from .traverser import Recorder, TraversalStats, Traverser, register_traverser
from .visitor import Visitor

__all__ = ["PriorityTraverser"]


class PriorityTraverser(Traverser):
    name = "priority"

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
        priority_fn = getattr(visitor, "priority", None)
        if priority_fn is None:
            raise TypeError(
                "priority traversal needs a visitor with a "
                "priority(tree, source, target) method"
            )

        for tgt in targets:
            tgt = int(tgt)
            tgt_count = int(counts[tgt])
            heap: list[tuple[float, int]] = [
                (float(priority_fn(tree, tree.root, tgt)), tree.root)
            ]
            while heap:
                if visitor.done(tree.node(tgt)):
                    break
                _, src = heapq.heappop(heap)
                stats.nodes_visited += 1
                stats.opens += 1
                if recorder is not None:
                    recorder.on_open_pairs(tree, np.array([src]), np.array([tgt]))
                if not visitor.open(tree.node(src), tree.node(tgt)):
                    stats.node_interactions += 1
                    stats.pn_interactions += tgt_count
                    if recorder is not None:
                        recorder.on_node_pairs(tree, np.array([src]), np.array([tgt]))
                    visitor.node(tree.node(src), tree.node(tgt))
                    continue
                if first_child[src] == -1:
                    stats.leaf_interactions += 1
                    stats.pp_interactions += int(counts[src]) * tgt_count
                    if recorder is not None:
                        recorder.on_leaf_pairs(tree, np.array([src]), np.array([tgt]))
                    visitor.leaf(tree.node(src), tree.node(tgt))
                    continue
                fc = int(first_child[src])
                for c in range(fc, fc + int(n_children[src])):
                    # ties break on the node index (second tuple element).
                    heapq.heappush(heap, (float(priority_fn(tree, c, tgt)), c))
        return stats


register_traverser(PriorityTraverser.name, PriorityTraverser)
