"""Reference binary-tree builder: one node at a time.

This is ``repro.trees.build_binary._build_binary`` as it stood before the
build became level-synchronous, moved here (verbatim but for the
``canonical`` switch below) as the oracle for it
(not a second product path).  It pops one node at a time off a LIFO stack
and ``argpartition``s the node's slice at the median, so which of several
particles *tied* on the split coordinate lands left of a cut is whatever
numpy's introselect leaves behind.  The count-driven arrays (``parent``,
``first_child``, ``n_children``, ``pstart``, ``pend``, ``level``, ``key``)
never depend on that choice; the boxes do not either unless a tie at a cut
is between particles that differ on another axis.  ``canonical=True`` swaps
the one ``argpartition`` for a full sort by ``(coordinate, input index)`` —
the order the product builder states — which makes this loop an oracle for
the boxes and the particle permutation on *any* input.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.particles import ParticleSet
from repro.trees import Tree, TreeBuildConfig
from repro.trees.node import NO_NODE

__all__ = ["reference_kd_tree", "reference_longest_dim_tree", "reference_binary_tree"]

# Heap keys double every level; uint64 holds 62 levels with the sentinel bit.
_MAX_BINARY_DEPTH = 62


def reference_kd_tree(particles: ParticleSet, config: TreeBuildConfig, canonical: bool = False) -> Tree:
    """k-d tree with depth-cycled split axes."""

    def pick_axis(level: int, lo: np.ndarray, hi: np.ndarray) -> int:
        return level % 3

    return _build_binary(particles, config, pick_axis, "kd", canonical)


def reference_longest_dim_tree(particles: ParticleSet, config: TreeBuildConfig, canonical: bool = False) -> Tree:
    """Longest-dimension tree: always split the node box's longest axis."""

    def pick_axis(level: int, lo: np.ndarray, hi: np.ndarray) -> int:
        return int(np.argmax(hi - lo))

    return _build_binary(particles, config, pick_axis, "longest", canonical)


def reference_binary_tree(particles: ParticleSet, config: TreeBuildConfig, canonical: bool = False) -> Tree:
    """Dispatch on ``config.tree_type`` (``kd`` or ``longest``)."""
    build = {"kd": reference_kd_tree, "longest": reference_longest_dim_tree}
    return build[str(config.tree_type)](particles, config, canonical)


def _build_binary(
    particles: ParticleSet,
    config: TreeBuildConfig,
    pick_axis: Callable[[int, np.ndarray, np.ndarray], int],
    tree_type: str,
    canonical: bool = False,
) -> Tree:
    n = len(particles)
    pos = particles.position
    perm = np.arange(n, dtype=np.int64)
    max_depth = min(config.max_depth, _MAX_BINARY_DEPTH)

    parent: list[int] = []
    first_child: list[int] = []
    n_children: list[int] = []
    pstart: list[int] = []
    pend: list[int] = []
    box_lo: list[np.ndarray] = []
    box_hi: list[np.ndarray] = []
    level_arr: list[int] = []
    node_key: list[int] = []

    def add_node(par: int, start: int, end: int, lo, hi, level: int, key: int) -> int:
        idx = len(parent)
        parent.append(par)
        first_child.append(NO_NODE)
        n_children.append(0)
        pstart.append(start)
        pend.append(end)
        box_lo.append(np.asarray(lo, dtype=np.float64))
        box_hi.append(np.asarray(hi, dtype=np.float64))
        level_arr.append(level)
        node_key.append(key)
        return idx

    universe = particles.bounding_box()
    root = add_node(NO_NODE, 0, n, universe.lo, universe.hi, 0, 1)
    queue = [root]
    while queue:
        i = queue.pop()
        start, end = pstart[i], pend[i]
        count = end - start
        lvl = level_arr[i]
        if count <= config.bucket_size or lvl >= max_depth:
            continue
        axis = pick_axis(lvl, box_lo[i], box_hi[i])
        coords = pos[perm[start:end], axis]
        mid = count // 2
        if canonical:
            part = np.lexsort((perm[start:end], coords))
        else:
            part = np.argpartition(coords, mid)
        perm[start:end] = perm[start:end][part]
        # Split plane halfway between the two sides' extreme particles; if
        # all coordinates are identical the children share the plane, which
        # is fine (boxes may be degenerate but remain valid).
        left_max = float(coords[part[:mid]].max())
        right_min = float(coords[part[mid:]].min())
        split = 0.5 * (left_max + right_min)
        lo, hi = box_lo[i], box_hi[i]
        l_hi = hi.copy()
        l_hi[axis] = split
        r_lo = lo.copy()
        r_lo[axis] = split
        key = node_key[i]
        left = add_node(i, start, start + mid, lo.copy(), l_hi, lvl + 1, 2 * key)
        right = add_node(i, start + mid, end, r_lo, hi.copy(), lvl + 1, 2 * key + 1)
        first_child[i] = left
        n_children[i] = 2
        queue.append(left)
        queue.append(right)

    particles = particles.permuted(perm)
    tree = Tree(
        particles=particles,
        parent=np.asarray(parent),
        first_child=np.asarray(first_child),
        n_children=np.asarray(n_children),
        pstart=np.asarray(pstart),
        pend=np.asarray(pend),
        box_lo=np.asarray(box_lo),
        box_hi=np.asarray(box_hi),
        level=np.asarray(level_arr),
        key=np.asarray(node_key, dtype=np.uint64),
        tree_type=tree_type,
        bucket_size=config.bucket_size,
    )
    return tree
