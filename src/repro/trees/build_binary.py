"""Binary spatial tree builders: k-d trees and longest-dimension trees.

Both split every internal node at the *median particle*, so the tree is
balanced by construction (paper §I: "kd-trees are guaranteed to be balanced,
but nodes can have very different aspect ratios").  They differ only in how
the split axis is chosen:

* k-d tree — cycles the axis with depth (x, y, z, x, ...), the classic
  Bentley construction;
* longest-dimension tree — always splits the longest axis of the node's
  current box (paper §IV-B), which keeps aspect ratios in check for flat,
  disk-like particle distributions.

The build is level-synchronous (docs/tree-build.md): one stable rank array
per axis up front, then every open node of a level is split at its median at
once — one sort of the integer key ``segment * n + rank[axis, particle]``
over the open nodes' rows, two order statistics per cut for the split plane —
and the level-order arrays are renumbered by
:func:`repro.trees.linear.tree_from_levels`.  Inside a split, particles end
up ascending in ``(coordinate on the split axis, input index)``.
Node keys are heap path keys (root 1, children ``2k`` and ``2k+1``), unique
per node and prefix-ordered along root-to-leaf paths like Morton keys are.
"""

from __future__ import annotations

import numpy as np

from ..particles import ParticleSet
from .build import TreeBuildConfig
from .linear import tree_from_levels
from .node import NO_NODE, Tree

__all__ = ["build_kd_tree", "build_longest_dim_tree"]

# Heap keys double every level; uint64 holds 62 levels with the sentinel bit.
_MAX_BINARY_DEPTH = 62


def build_kd_tree(particles: ParticleSet, config: TreeBuildConfig) -> Tree:
    """k-d tree with depth-cycled split axes."""
    return _build_binary(particles, config, "kd")


def build_longest_dim_tree(particles: ParticleSet, config: TreeBuildConfig) -> Tree:
    """Longest-dimension tree: always split the node box's longest axis."""
    return _build_binary(particles, config, "longest")


def _axis_orders(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, rank)``, both (3, N) flattened: per axis the argsort of the
    coordinate with ties in input order, and its inverse."""
    n = len(pos)
    order = np.empty((3, n), dtype=np.int64)
    rank = np.empty((3, n), dtype=np.int64)
    for axis in range(3):
        x = np.ascontiguousarray(pos[:, axis])
        by_x = np.argsort(x)
        sorted_x = x[by_x]
        if np.any(sorted_x[1:] == sorted_x[:-1]):
            # only a stable sort orders tied coordinates by input index; it
            # costs 5x the default one, which is the same answer without ties
            by_x = np.argsort(x, kind="stable")
        order[axis] = by_x
        rank[axis, by_x] = np.arange(n)
    return order.ravel(), rank.ravel()


def _build_binary(particles: ParticleSet, config: TreeBuildConfig, tree_type: str) -> Tree:
    # Function-level import: repro.core imports repro.trees at package load.
    from ..core.util import ranges_to_indices

    n = len(particles)
    pos = particles.position
    order, rank = _axis_orders(pos)
    perm = np.arange(n, dtype=np.int64)
    universe = particles.bounding_box()

    # The open level; children of one parent are adjacent and parents keep
    # their order, so every level is sorted by particle range.
    parent = np.array([NO_NODE], dtype=np.int64)  # level-order (BFS) index
    start = np.array([0], dtype=np.int64)
    end = np.array([n], dtype=np.int64)
    lo = np.array(universe.lo, dtype=np.float64).reshape(1, 3)
    hi = np.array(universe.hi, dtype=np.float64).reshape(1, 3)
    key = np.array([1], dtype=np.uint64)
    levels = []
    base = 0  # level-order index of the open level's first node

    for lvl in range(min(config.max_depth, _MAX_BINARY_DEPTH)):
        split = np.flatnonzero(end - start > config.bucket_size)
        if split.size == 0:
            break
        s, e = start[split], end[split]
        count = e - s
        if tree_type == "kd":
            axis = np.full(split.size, lvl % 3)
        else:
            axis = np.argmax(hi[split] - lo[split], axis=1)

        # Sort every splitting node's rows by (node, rank on its axis) in one
        # pass: ranks are distinct, so the keys are, and sorting their values
        # beats an argsort — the particle is read back off the rank.
        rows = ranges_to_indices(s, e)
        segment = np.repeat(np.arange(split.size) * n, count)
        column = np.repeat(axis * n, count)
        keys = segment + rank[column + perm[rows]]
        keys.sort()
        perm[rows] = order[column + (keys - segment)]

        # Split plane halfway between the two sides' extreme particles; if
        # all coordinates are identical the children share the plane, which
        # is fine (boxes may be degenerate but remain valid).
        cut = s + count // 2
        plane = 0.5 * (pos[perm[cut - 1], axis] + pos[perm[cut], axis])
        left = 2 * np.arange(split.size)
        child_lo = np.repeat(lo[split], 2, axis=0)
        child_hi = np.repeat(hi[split], 2, axis=0)
        child_hi[left, axis] = plane
        child_lo[left + 1, axis] = plane

        first = np.full(len(start), NO_NODE, dtype=np.int64)
        first[split] = base + len(start) + left
        n_children = np.zeros(len(start), dtype=np.int64)
        n_children[split] = 2
        levels.append((parent, first, n_children, start, end, lo, hi, key))

        parent = np.repeat(base + split, 2)
        base += len(start)
        start = np.column_stack([s, cut]).ravel()
        end = np.column_stack([cut, e]).ravel()
        lo, hi = child_lo, child_hi
        key = np.column_stack([2 * key[split], 2 * key[split] + 1]).ravel()

    # Whatever is still open when the loop ends is a level of leaves.
    first = np.full(len(start), NO_NODE, dtype=np.int64)
    levels.append((parent, first, np.zeros(len(start), dtype=np.int64), start, end, lo, hi, key))
    return tree_from_levels(particles.permuted(perm), levels, tree_type, config)
