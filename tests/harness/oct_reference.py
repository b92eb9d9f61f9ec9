"""Reference octree builder: one node at a time.

This is ``repro.trees.build_oct`` as it stood while the product had two
octree builders, moved here verbatim (imports apart) as the byte-identity
oracle for ``repro.trees.linear.build_octree_linear`` — not a second product
path.  ``tests/test_linear_tree.py`` requires every structure array, box
and the particle permutation of the product build to equal this loop's.

The classic hashed-octree construction (Warren & Salmon 1993): particles are
sorted once by Morton key, after which every octree node corresponds to a key
*prefix* and therefore to a contiguous slice of the sorted particle array.
Splitting a node into its eight children is eight ``searchsorted`` calls —
no per-particle Python work.

Empty children are not materialised (standard for astrophysical octrees:
highly clustered data would otherwise blow up the node count).
"""

from __future__ import annotations

import numpy as np

from repro.geometry import MORTON_BITS, morton_keys
from repro.particles import ParticleSet
from repro.trees import Tree, TreeBuildConfig
from repro.trees.node import NO_NODE

__all__ = ["build_octree"]


def build_octree(particles: ParticleSet, config: TreeBuildConfig) -> Tree:
    """Build an octree; returns a :class:`Tree` with Morton-prefix node keys."""
    universe = particles.bounding_box().cubified()
    keys = morton_keys(particles.position, universe)
    order = np.argsort(keys, kind="stable")
    particles = particles.permuted(order)
    keys = keys[order]
    n = len(particles)
    max_level = min(config.max_depth, MORTON_BITS)

    # Growing node arrays (python lists of scalars; finalised to numpy).
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

    root = add_node(NO_NODE, 0, n, universe.lo, universe.hi, 0, 1)
    # Queue of node indices still to be split.  Children of one node are
    # appended together, which keeps them contiguous in the arrays.
    queue = [root]
    while queue:
        i = queue.pop()
        start, end = pstart[i], pend[i]
        lvl = level_arr[i]
        if end - start <= config.bucket_size or lvl >= max_level:
            continue  # leaf
        # The node's Morton prefix: stored keys carry a leading 1 sentinel
        # bit so prefixes are unique across levels ("hashed octree" keys).
        prefix = node_key[i]
        shift = 3 * (MORTON_BITS - (lvl + 1))
        # Child c covers sorted-key range [ ((prefix*8+c) - sentinel) << shift, ... ).
        base = (prefix << 3) & ((1 << (3 * MORTON_BITS + 3)) - 1)
        sentinel = 1 << (3 * (lvl + 1))
        boundaries = np.searchsorted(
            keys[start:end],
            np.array(
                [((base + c) - sentinel) << shift for c in range(9)], dtype=np.uint64
            ),
            side="left",
        ) + start
        first = None
        count = 0
        c_lo = box_lo[i]
        c_hi = box_hi[i]
        center = 0.5 * (c_lo + c_hi)
        for c in range(8):
            s, e = int(boundaries[c]), int(boundaries[c + 1])
            if s == e:
                continue  # skip empty octant
            lo = c_lo.copy()
            hi = c_hi.copy()
            for dim in range(3):
                if (c >> dim) & 1:
                    lo[dim] = center[dim]
                else:
                    hi[dim] = center[dim]
            child = add_node(i, s, e, lo, hi, lvl + 1, base + c)
            queue.append(child)
            if first is None:
                first = child
            count += 1
        if first is not None:
            first_child[i] = first
            n_children[i] = count

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
        tree_type="oct",
        bucket_size=config.bucket_size,
    )
    if config.tight_boxes:
        _tighten_boxes(tree)
    return tree


def _tighten_boxes(tree: Tree) -> None:
    """Shrink every node box to the tight bounds of its particle slice."""
    pos = tree.particles.position
    for i in range(tree.n_nodes):
        s, e = tree.pstart[i], tree.pend[i]
        if e > s:
            tree.box_lo[i] = pos[s:e].min(axis=0)
            tree.box_hi[i] = pos[s:e].max(axis=0)
