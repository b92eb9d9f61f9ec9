"""Vectorised linear-octree builder (Cornerstone-style).

The octree builder.  The textbook construction does Python-level work per
*node* (a ``searchsorted`` and a box split inside a ``while`` loop over a
stack; that loop is the oracle in ``tests/harness/oct_reference.py``).  This
module builds the identical tree with work proportional to the *depth*
instead: one Morton sort, then one counting pass per level in which every
node of that level is subdivided at once.

The construction runs in two fully vectorised phases:

1. **Level-order (BFS) subdivision.**  After the Morton sort, every octree
   node is a contiguous slice of the key array and every child boundary is a
   *change point* of the level-``L+1`` key prefix.  One ``np.flatnonzero``
   over adjacent prefixes finds all boundaries of a level, and two
   ``searchsorted`` calls distribute them to the splitting parents — no
   per-node Python whatsoever.
2. **Canonical renumbering.**  The node-at-a-time loop numbers nodes in the
   order its LIFO work stack pops them (children appear contiguously, in
   octant order, when their parent is popped — i.e. a depth-first order that
   descends through the *last* child first).  We reproduce that numbering
   exactly with three array passes: subtree sizes (bottom-up ``np.add.at``),
   depth-first positions (top-down segment suffix-sums), and child-block
   offsets (one ``cumsum`` over the internal nodes in pop order).

Phase 2 makes the output *byte-identical* to the reference loop's — same
node order, same float boxes (child boxes are derived by the same
``0.5 * (lo + hi)`` halving), same keys, same particle permutation — which is
the numbering every downstream consumer (traversal engines, decomposition
tie-breaks, checkpoints, the shm arena) and every recorded digest assumes.
"""

from __future__ import annotations

import numpy as np

from ..geometry import MORTON_BITS, morton_keys
from ..particles import ParticleSet
from .build import TreeBuildConfig
from .node import NO_NODE, Tree

__all__ = ["build_octree_linear"]


def build_octree_linear(particles: ParticleSet, config: TreeBuildConfig) -> Tree:
    """Build an octree without per-node Python work; returns a
    :class:`Tree` with Morton-prefix node keys."""
    # Function-level import: repro.core imports repro.trees at package load.
    from ..core.util import ranges_to_indices

    universe = particles.bounding_box().cubified()
    keys = morton_keys(particles.position, universe)
    order = np.argsort(keys, kind="stable")
    particles = particles.permuted(order)
    keys = keys[order]
    n = len(particles)
    max_level = min(config.max_depth, MORTON_BITS)
    bucket = config.bucket_size

    # -- phase 1: level-order subdivision -----------------------------------
    # Per-level arrays; children of one parent are contiguous within a level
    # and parents appear in the same order as on the previous level.
    lvl_start = [np.array([0], dtype=np.int64)]
    lvl_end = [np.array([n], dtype=np.int64)]
    lvl_lo = [np.asarray(universe.lo, dtype=np.float64).reshape(1, 3).copy()]
    lvl_hi = [np.asarray(universe.hi, dtype=np.float64).reshape(1, 3).copy()]
    lvl_key = [np.array([1], dtype=np.uint64)]
    lvl_parent = [np.array([NO_NODE], dtype=np.int64)]  # global BFS index
    lvl_first = []   # global BFS index of first child, NO_NODE for leaves
    lvl_nchild = []  # children per node
    level_base = [0]

    for lvl in range(max_level):
        start, end = lvl_start[lvl], lvl_end[lvl]
        first = np.full(len(start), NO_NODE, dtype=np.int64)
        nchild = np.zeros(len(start), dtype=np.int64)
        split = np.flatnonzero(end - start > bucket)
        if split.size == 0:
            lvl_first.append(first)
            lvl_nchild.append(nchild)
            break
        s, e = start[split], end[split]
        # Level-(lvl+1) prefix of every particle key; a child boundary inside
        # any splitting node is exactly a change point of this prefix.
        prefix = keys >> np.uint64(3 * (MORTON_BITS - (lvl + 1)))
        cp = np.flatnonzero(prefix[1:] != prefix[:-1]).astype(np.int64) + 1
        li = np.searchsorted(cp, s, side="right")
        ri = np.searchsorted(cp, e, side="left")
        counts = ri - li + 1  # change points in (s, e) cut [s, e) into runs
        total = int(counts.sum())
        firstpos = np.concatenate([[0], np.cumsum(counts)[:-1]])
        lastpos = firstpos + counts - 1

        child_start = np.empty(total, dtype=np.int64)
        child_start[firstpos] = s
        mid = np.ones(total, dtype=bool)
        mid[firstpos] = False
        child_start[mid] = cp[ranges_to_indices(li, ri)]
        child_end = np.empty(total, dtype=np.int64)
        child_end[lastpos] = e
        last_mask = np.zeros(total, dtype=bool)
        last_mask[lastpos] = True
        inner = np.flatnonzero(~last_mask)
        child_end[inner] = child_start[inner + 1]

        cprefix = prefix[child_start]
        child_key = cprefix + np.uint64(1 << (3 * (lvl + 1)))
        octant = (cprefix & np.uint64(7)).astype(np.int64)

        # Child boxes by float halving of the parent box — the identical
        # arithmetic (0.5 * (lo + hi), then replace one face per axis) the
        # reference loop performs, so the floats match bit for bit.
        center = 0.5 * (lvl_lo[lvl][split] + lvl_hi[lvl][split])
        rep = np.repeat(np.arange(split.size), counts)
        plo, phi, pcenter = lvl_lo[lvl][split][rep], lvl_hi[lvl][split][rep], center[rep]
        bits = (octant[:, None] >> np.arange(3)[None, :]) & 1
        child_lo = np.where(bits == 1, pcenter, plo)
        child_hi = np.where(bits == 1, phi, pcenter)

        first[split] = (level_base[lvl] + len(start)) + firstpos
        nchild[split] = counts
        lvl_first.append(first)
        lvl_nchild.append(nchild)

        lvl_start.append(child_start)
        lvl_end.append(child_end)
        lvl_lo.append(child_lo)
        lvl_hi.append(child_hi)
        lvl_key.append(child_key)
        lvl_parent.append(level_base[lvl] + split[rep])
        level_base.append(level_base[lvl] + len(start))
    else:
        # Depth cap reached with the last level never examined for splits.
        lvl_first.append(np.full(len(lvl_start[-1]), NO_NODE, dtype=np.int64))
        lvl_nchild.append(np.zeros(len(lvl_start[-1]), dtype=np.int64))

    levels = list(zip(lvl_parent, lvl_first, lvl_nchild, lvl_start, lvl_end,
                      lvl_lo, lvl_hi, lvl_key))
    return tree_from_levels(particles, levels, "oct", config)


def tree_from_levels(particles: ParticleSet, levels: list, tree_type: str,
                     config: TreeBuildConfig) -> Tree:
    """Assemble a :class:`Tree` from level-order arrays, renumbered the way a
    LIFO work stack numbers nodes (phase 2; shared with the binary builders).

    ``levels[d]`` is ``(parent, first_child, n_children, pstart, pend, box_lo,
    box_hi, key)`` for the nodes of depth ``d``, ``parent`` / ``first_child``
    being level-order (BFS) indices; children of one parent are contiguous
    and parents keep their order from one level to the next.  ``particles``
    are already in tree order.
    """
    parent_b, first_b, nchild_b, start_b, end_b, lo_b, hi_b, key_b = (
        np.concatenate(column) for column in zip(*levels)
    )
    widths = [len(level[0]) for level in levels]
    level_b = np.repeat(np.arange(len(levels)), widths)
    level_base = np.concatenate([[0], np.cumsum(widths)])
    m = len(parent_b)

    # Subtree sizes, bottom-up: children of level L live at level L-1.
    size = np.ones(m, dtype=np.int64)
    for lvl in range(len(levels) - 1, 0, -1):
        idx = np.arange(level_base[lvl], level_base[lvl + 1])
        np.add.at(size, parent_b[idx], size[idx])

    # Depth-first position of every node under "last child first" descent:
    # pos(child_j) = pos(parent) + 1 + sum of later siblings' subtree sizes.
    pos = np.zeros(m, dtype=np.int64)
    for lvl in range(1, len(levels)):
        idx = np.arange(level_base[lvl], level_base[lvl + 1])
        above = nchild_b[level_base[lvl - 1]:level_base[lvl]]
        counts = above[above > 0]  # children per splitting parent
        cs = np.cumsum(size[idx])
        lastpos = np.cumsum(counts) - 1
        seg_id = np.repeat(np.arange(counts.size), counts)
        tail = cs[lastpos][seg_id] - cs
        pos[idx] = pos[parent_b[idx]] + 1 + tail

    # Internal nodes in pop (depth-first) order each claim the next
    # contiguous child block — exactly the reference loop's numbering.
    new_idx = np.empty(m, dtype=np.int64)
    new_idx[0] = 0
    internal = np.flatnonzero(nchild_b > 0)
    if internal.size:
        order_int = internal[np.argsort(pos[internal])]
        offsets = 1 + np.concatenate([[0], np.cumsum(nchild_b[order_int])[:-1]])
        block = np.empty(m, dtype=np.int64)
        block[order_int] = offsets
        nonroot = np.arange(1, m)
        pp = parent_b[nonroot]
        new_idx[nonroot] = block[pp] + (nonroot - first_b[pp])

    inv = np.empty(m, dtype=np.int64)
    inv[new_idx] = np.arange(m)
    parent_n = parent_b[inv]
    remap = parent_n != NO_NODE
    parent_n[remap] = new_idx[parent_n[remap]]
    first_n = first_b[inv]
    remap = first_n != NO_NODE
    first_n[remap] = new_idx[first_n[remap]]

    tree = Tree(
        particles=particles,
        parent=parent_n,
        first_child=first_n,
        n_children=nchild_b[inv],
        pstart=start_b[inv],
        pend=end_b[inv],
        box_lo=lo_b[inv],
        box_hi=hi_b[inv],
        level=level_b[inv],
        key=key_b[inv],
        tree_type=tree_type,
        bucket_size=config.bucket_size,
    )
    return tree


def tight_bounds(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, both (M, 3): the tight bounds of every node's particles.

    Leaf slices tile ``[0, N)``, so ``np.minimum.reduceat`` over the
    pstart-sorted leaves gives every leaf's bounds in one pass; internal
    nodes follow bottom-up (min/max are exact, so combining children is
    bit-identical to reducing the node's whole particle slice).
    """
    pos = tree.particles.position
    leaves = tree.leaf_indices
    lsort = leaves[np.argsort(tree.pstart[leaves])]
    starts = tree.pstart[lsort]
    lo = np.full((tree.n_nodes, 3), np.inf)
    hi = np.full((tree.n_nodes, 3), -np.inf)
    lo[lsort] = np.minimum.reduceat(pos, starts, axis=0)
    hi[lsort] = np.maximum.reduceat(pos, starts, axis=0)
    for lvl in range(int(tree.level.max()), 0, -1):
        idx = np.flatnonzero(tree.level == lvl)
        np.minimum.at(lo, tree.parent[idx], lo[idx])
        np.maximum.at(hi, tree.parent[idx], hi[idx])
    return lo, hi
