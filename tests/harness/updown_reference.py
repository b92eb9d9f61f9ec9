"""Reference up-and-down walk: one target bucket at a time.

This is the engine :mod:`repro.core.upanddown` had before it became
round-synchronous, kept here as the oracle for it (not a second product
path): the whole walk of one target — every path node, every level below
it — finishes before the next target starts, so nothing one target sees
can depend on another.  It drives the visitor through the same hooks as the
engine (``open_pairs``/``node_pairs``/``leaf_pairs`` with a constant target
column, ``done_targets`` with one target), which is what lets the property
tests demand equal *bytes*, equal counts and equal per-target interaction
lists for any slice budget and any chunking of the targets.
"""

from __future__ import annotations

import numpy as np

from repro.core.traverser import Recorder, TraversalStats, Traverser
from repro.core.util import ranges_to_indices
from repro.core.visitor import Visitor
from repro.trees import Tree

__all__ = ["reference_up_and_down"]


def reference_up_and_down(
    tree: Tree,
    visitor: Visitor,
    targets: np.ndarray | None = None,
    recorder: Recorder | None = None,
) -> TraversalStats:
    targets = Traverser._resolve_targets(tree, targets)
    stats = TraversalStats(targets=len(targets))
    parent = tree.parent
    first_child = tree.first_child
    n_children = tree.n_children

    for tgt in targets.tolist():
        current = tgt
        prev = -1
        while current != -1:
            if prev == -1:
                roots = np.array([current], dtype=np.int64)
            else:
                fc = first_child[current]
                roots = np.arange(fc, fc + n_children[current], dtype=np.int64)
                roots = roots[roots != prev]
            if roots.size:
                _descend(tree, visitor, roots, tgt, stats, recorder)
            if visitor.done_targets(tree, np.array([tgt]), np.array([current]))[0]:
                break
            prev = current
            current = int(parent[current])
    return stats


def _descend(tree, visitor, roots, tgt, stats, recorder) -> None:
    """Standard top-down pass from ``roots`` toward one target bucket."""
    first_child = tree.first_child
    n_children = tree.n_children
    counts = tree.pend - tree.pstart
    tgt_count = int(counts[tgt])
    frontier = roots
    while frontier.size:
        stats.nodes_visited += int(frontier.size)
        stats.opens += int(frontier.size)
        column = np.full(frontier.size, tgt)
        if recorder is not None:
            recorder.on_open_pairs(tree, frontier, column)
        mask = np.asarray(visitor.open_pairs(tree, frontier, column), dtype=bool)
        closed = frontier[~mask]
        if closed.size:
            stats.node_interactions += int(closed.size)
            stats.pn_interactions += int(closed.size) * tgt_count
            if recorder is not None:
                recorder.on_node_pairs(tree, closed, column[:closed.size])
            visitor.node_pairs(tree, closed, column[:closed.size])
        opened = frontier[mask]
        leaf_mask = first_child[opened] == -1
        leaves = opened[leaf_mask]
        if leaves.size:
            stats.leaf_interactions += int(leaves.size)
            stats.pp_interactions += int(counts[leaves].sum()) * tgt_count
            if recorder is not None:
                recorder.on_leaf_pairs(tree, leaves, column[:leaves.size])
            visitor.leaf_pairs(tree, leaves, column[:leaves.size])
        internal = opened[~leaf_mask]
        frontier = ranges_to_indices(
            first_child[internal], first_child[internal] + n_children[internal]
        )
