"""Dual-tree traversal (paper §II-A-2; Gray & Moore 2000).

Instead of fixing the target to a leaf bucket, both sides of the interaction
are tree nodes.  ``open(source, target)`` decides whether the pair can be
approximated (→ ``node()``); when it cannot, ``cell(source, target)``
chooses between opening *both* sides (B² child-pair interactions) or keeping
the target and opening only the source (B interactions).  Pairs of leaves
fall through to ``leaf()``.

Used for n-point correlation style computations; the gravity equivalence
tests run it against the single-tree engines.
"""

from __future__ import annotations

import numpy as np

from ..trees import Tree
from .traverser import Recorder, TraversalStats, Traverser, register_traverser
from .visitor import Visitor

__all__ = ["DualTreeTraverser"]


class DualTreeTraverser(Traverser):
    name = "dual-tree"

    def _traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        """``targets`` selects *target subtree roots* (default: the root, i.e.
        the full self-interaction of the tree with itself)."""
        if targets is None:
            target_roots = [tree.root]
        else:
            target_roots = [int(t) for t in np.asarray(targets).ravel()]
        stats = TraversalStats(targets=len(target_roots))
        first_child = tree.first_child
        n_children = tree.n_children
        counts = tree.pend - tree.pstart

        stack: list[tuple[int, int]] = [(tree.root, t) for t in target_roots]
        while stack:
            s, t = stack.pop()
            s_node = tree.node(s)
            t_node = tree.node(t)
            stats.opens += 1
            stats.nodes_visited += 1
            if recorder is not None:
                recorder.on_open_pairs(tree, np.array([s]), np.array([t]))
            if not visitor.open(s_node, t_node):
                stats.node_interactions += 1
                stats.pn_interactions += int(counts[t])
                if recorder is not None:
                    recorder.on_node_pairs(tree, np.array([s]), np.array([t]))
                visitor.node(s_node, t_node)
                continue
            s_leaf = first_child[s] == -1
            t_leaf = first_child[t] == -1
            if s_leaf and t_leaf:
                stats.leaf_interactions += 1
                stats.pp_interactions += int(counts[s]) * int(counts[t])
                if recorder is not None:
                    recorder.on_leaf_pairs(tree, np.array([s]), np.array([t]))
                visitor.leaf(s_node, t_node)
            elif s_leaf:
                fc = int(first_child[t])
                for tc in range(fc, fc + int(n_children[t])):
                    stack.append((s, tc))
            elif t_leaf:
                fc = int(first_child[s])
                for sc in range(fc, fc + int(n_children[s])):
                    stack.append((sc, t))
            elif visitor.cell(s_node, t_node):
                sfc = int(first_child[s])
                tfc = int(first_child[t])
                for sc in range(sfc, sfc + int(n_children[s])):
                    for tc in range(tfc, tfc + int(n_children[t])):
                        stack.append((sc, tc))
            else:
                sfc = int(first_child[s])
                for sc in range(sfc, sfc + int(n_children[s])):
                    stack.append((sc, t))
        return stats


register_traverser(DualTreeTraverser.name, DualTreeTraverser)
