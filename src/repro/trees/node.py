"""Array-backed spatial tree and the per-node view object.

The :class:`Tree` holds all nodes of one tree in flat arrays ("structure of
arrays").  Children of a node are contiguous, so the topology needs only
``first_child`` and ``n_children``.  Particles are stored once, permuted into
tree order, and every node records its ``[pstart, pend)`` slice — a leaf's
bucket is literally ``tree.particles.position[pstart:pend]``.

:class:`SpatialNode` mirrors the paper's ``SpatialNode<Data>``: the object
handed to user ``Visitor`` callbacks, carrying the node's box, particle
slice, and accumulated ``Data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..geometry import Box3
from ..particles import ParticleSet

__all__ = ["Tree", "SpatialNode"]

#: Sentinel for "no node" in index arrays.
NO_NODE = -1


class Tree:
    """One spatial tree over a (permuted) particle set.

    Nodes are indexed ``0 .. n_nodes-1`` with the root at index 0.  All
    arrays are aligned on that index:

    ``parent``       (M,)  int64   parent index, ``NO_NODE`` for root
    ``first_child``  (M,)  int64   index of first child, ``NO_NODE`` for leaf
    ``n_children``   (M,)  int64   number of children (contiguous block)
    ``pstart/pend``  (M,)  int64   particle range in tree order
    ``box_lo/box_hi`` (M, 3)       node bounding boxes
    ``level``        (M,)  int64   depth (root = 0)
    ``key``          (M,)  uint64  tree-type-specific node key (SFC prefix
                                   for octrees, heap-style path key for
                                   binary trees); unique per node
    """

    def __init__(
        self,
        particles: ParticleSet,
        parent: np.ndarray,
        first_child: np.ndarray,
        n_children: np.ndarray,
        pstart: np.ndarray,
        pend: np.ndarray,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
        level: np.ndarray,
        key: np.ndarray,
        tree_type: str,
        bucket_size: int,
    ) -> None:
        self.particles = particles
        self.parent = np.ascontiguousarray(parent, dtype=np.int64)
        self.first_child = np.ascontiguousarray(first_child, dtype=np.int64)
        self.n_children = np.ascontiguousarray(n_children, dtype=np.int64)
        self.pstart = np.ascontiguousarray(pstart, dtype=np.int64)
        self.pend = np.ascontiguousarray(pend, dtype=np.int64)
        self.box_lo = np.ascontiguousarray(box_lo, dtype=np.float64)
        self.box_hi = np.ascontiguousarray(box_hi, dtype=np.float64)
        self.level = np.ascontiguousarray(level, dtype=np.int64)
        self.key = np.ascontiguousarray(key, dtype=np.uint64)
        self.tree_type = tree_type
        self.bucket_size = int(bucket_size)
        #: Per-node user Data, filled by repro.core.data.accumulate_data.
        self.data: list[Any] | None = None
        self._leaf_indices: np.ndarray | None = None

    # -- structure queries ---------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def root(self) -> int:
        return 0

    def is_leaf(self, i) -> np.ndarray | bool:
        out = self.first_child[i] == NO_NODE
        return bool(out) if np.isscalar(i) else out

    @property
    def leaf_indices(self) -> np.ndarray:
        """Indices of all leaves (cached)."""
        if self._leaf_indices is None:
            self._leaf_indices = np.flatnonzero(self.first_child == NO_NODE)
        return self._leaf_indices

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_indices)

    @property
    def depth(self) -> int:
        return int(self.level.max()) if self.n_nodes else 0

    def children(self, i: int) -> np.ndarray:
        fc = self.first_child[i]
        if fc == NO_NODE:
            return np.empty(0, dtype=np.int64)
        return np.arange(fc, fc + self.n_children[i], dtype=np.int64)

    def node_box(self, i: int) -> Box3:
        return Box3(self.box_lo[i].copy(), self.box_hi[i].copy())

    def node_particle_count(self, i) -> np.ndarray | int:
        out = self.pend[i] - self.pstart[i]
        return int(out) if np.isscalar(i) else out

    def ancestors(self, i: int) -> list[int]:
        """Path from ``i``'s parent up to (and including) the root."""
        out: list[int] = []
        p = self.parent[i]
        while p != NO_NODE:
            out.append(int(p))
            p = self.parent[p]
        return out

    def subtree_nodes(self, i: int) -> np.ndarray:
        """All node indices in the subtree rooted at ``i`` (preorder, the
        last child first — the order a LIFO stack walk visits them).

        Node ranges nest, so the subtree is every node whose particle range
        lies inside ``i``'s and that is no shallower (an equal range one
        level up is an ancestor on a single-child chain); descending ``pend``,
        then ascending level, is that preorder.
        """
        inside = np.flatnonzero(
            (self.pstart >= self.pstart[i]) & (self.pend <= self.pend[i])
            & (self.level >= self.level[i])
        )
        return inside[np.lexsort((self.level[inside], -self.pend[inside]))]

    def leaf_of_particle(self) -> np.ndarray:
        """(N,) array mapping each particle (tree order) to its leaf index."""
        leaves = self.leaf_indices
        leaves = leaves[np.argsort(self.pstart[leaves])]
        return np.repeat(leaves, self.pend[leaves] - self.pstart[leaves])

    def iter_preorder(self) -> Iterator[int]:
        stack = [0] if self.n_nodes else []
        while stack:
            n = stack.pop()
            yield n
            fc = self.first_child[n]
            if fc != NO_NODE:
                stack.extend(reversed(range(fc, fc + self.n_children[n])))

    def node(self, i: int) -> "SpatialNode":
        """The user-facing view of node ``i`` (paper's ``SpatialNode``)."""
        return SpatialNode(self, int(i))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tree(type={self.tree_type!r}, nodes={self.n_nodes}, "
            f"leaves={self.n_leaves}, particles={self.n_particles}, "
            f"depth={self.depth}, bucket={self.bucket_size})"
        )


@dataclass(frozen=True)
class SpatialNode:
    """Lightweight view of one tree node, handed to Visitor callbacks.

    Mirrors ``SpatialNode<Data>`` from the paper's API (Figs 6-7): exposes
    the node's accumulated ``data``, bounding box, and particle slice.
    """

    tree: Tree
    index: int

    @property
    def data(self) -> Any:
        if self.tree.data is None:
            raise RuntimeError("tree has no accumulated Data; run accumulate_data first")
        return self.tree.data[self.index]

    @property
    def box(self) -> Box3:
        return self.tree.node_box(self.index)

    @property
    def is_leaf(self) -> bool:
        return bool(self.tree.is_leaf(self.index))

    @property
    def level(self) -> int:
        return int(self.tree.level[self.index])

    @property
    def n_particles(self) -> int:
        return int(self.tree.pend[self.index] - self.tree.pstart[self.index])

    @property
    def pslice(self) -> slice:
        return slice(int(self.tree.pstart[self.index]), int(self.tree.pend[self.index]))

    @property
    def positions(self) -> np.ndarray:
        return self.tree.particles.position[self.pslice]

    @property
    def masses(self) -> np.ndarray:
        return self.tree.particles.mass[self.pslice]

    def field(self, name: str) -> np.ndarray:
        """Slice of an arbitrary particle field for this node's bucket."""
        return self.tree.particles[name][self.pslice]

    def children(self) -> list["SpatialNode"]:
        return [SpatialNode(self.tree, int(c)) for c in self.tree.children(self.index)]

    def parent(self) -> "SpatialNode | None":
        p = self.tree.parent[self.index]
        return None if p == NO_NODE else SpatialNode(self.tree, int(p))
