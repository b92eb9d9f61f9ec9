"""The Partitions–Subtrees model (paper §II-C).

"The crucial insight of the Partitions-Subtrees model is that at the
boundaries of decomposed Partitions, only buckets need be split up, and not
tree segments.  We assign the division of particle buckets (i.e., load) to
the Partitions, and the division of the tree (i.e., memory) to the
Subtrees."

Given a built tree and a per-particle partition assignment (from any
:class:`~repro.decomp.splitters.Decomposer`), :func:`decompose` constructs:

* :class:`Subtree` objects — disjoint tree segments covering all leaves,
  each rooted at a tree node, chosen consistently with the tree structure
  (contiguous tree-order particle ranges);
* :class:`Partition` objects — per-partition *local buckets*: whole leaves
  where possible, split leaves at partition borders (Fig 5);
* the leaf-sharing statistics — how many buckets had to be split and how
  many particles cross process boundaries (the paper reports this step
  costs only 0.1–0.4 % of iteration time precisely because the counts are
  small);
* process placement for both Partitions and Subtrees, with the paper's
  optimisation of binding them by location when the splitters coincide.

:func:`branch_duplication_count` measures what the *traditional* model would
pay: the number of tree nodes whose descendants span multiple partitions and
therefore would need cross-process merging during tree build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import traced
from ..trees import Tree

__all__ = [
    "Partition",
    "Subtree",
    "Decomposition",
    "decompose",
    "branch_duplication_count",
]


@dataclass
class LocalBucket:
    """One partition-local bucket: a leaf (or a split piece of one).

    ``particle_idx`` are tree-order particle indices; for unsplit buckets it
    is the leaf's full range.
    """

    leaf: int
    particle_idx: np.ndarray
    is_split: bool


@dataclass
class Partition:
    """A unit of traversal load: a set of local buckets, held as arrays.

    One row per local bucket, in ``tree.leaf_indices`` order.  A whole leaf
    is the tree-order range ``[bucket_start, bucket_end)``; a split piece
    (rare, §II-C-1) is that range of ``split_particles``, which holds the
    tree-order indices of this partition's share of every split leaf.
    """

    index: int
    process: int
    bucket_leaf: np.ndarray
    bucket_start: np.ndarray
    bucket_end: np.ndarray
    bucket_split: np.ndarray
    split_particles: np.ndarray

    @property
    def buckets(self) -> list[LocalBucket]:
        """The local buckets as objects, materialised on demand."""
        return [
            LocalBucket(int(leaf), self.split_particles[s:e] if split else np.arange(s, e),
                        bool(split))
            for leaf, s, e, split in zip(self.bucket_leaf, self.bucket_start,
                                         self.bucket_end, self.bucket_split)
        ]

    @property
    def n_particles(self) -> int:
        return int((self.bucket_end - self.bucket_start).sum())

    @property
    def leaf_ids(self) -> np.ndarray:
        return np.unique(self.bucket_leaf)

    def particle_indices(self) -> np.ndarray:
        """Tree-order indices of every local bucket's particles, bucket by bucket."""
        from ..core.util import ranges_to_indices  # repro.core imports repro.decomp

        out = ranges_to_indices(self.bucket_start, self.bucket_end)
        piece = np.repeat(self.bucket_split, self.bucket_end - self.bucket_start)
        out[piece] = self.split_particles[out[piece]]
        return out


@dataclass
class Subtree:
    """A unit of tree memory: the subtree rooted at ``root`` (a tree node).

    Owns the contiguous tree-order particle range of its root.
    """

    index: int
    root: int
    pstart: int
    pend: int
    process: int = 0

    @property
    def n_particles(self) -> int:
        return self.pend - self.pstart


@dataclass
class Decomposition:
    """Everything the runtime needs to place work and memory."""

    tree: Tree
    partitions: list[Partition]
    subtrees: list[Subtree]
    #: per-particle (tree order) partition id
    particle_partition: np.ndarray
    #: per-node subtree id (which Subtree's segment the node belongs to;
    #: nodes above all subtree roots get -1: they are the shared branch).
    node_subtree: np.ndarray
    n_processes: int
    #: leaf-sharing statistics
    n_split_buckets: int
    n_shared_particles: int
    #: True when partition and subtree splitters coincided and the library
    #: bound them by location (no bucket ever split).
    colocated: bool

    def partition_loads(self, per_particle_load: np.ndarray | None = None) -> np.ndarray:
        """Summed load per partition (defaults to particle counts)."""
        n = self.tree.n_particles
        load = np.ones(n) if per_particle_load is None else np.asarray(per_particle_load)
        return np.bincount(self.particle_partition, weights=load, minlength=len(self.partitions))

    def node_process(self) -> np.ndarray:
        """Home process of every tree node (-1 for the replicated branch)."""
        process = np.array([st.process for st in self.subtrees], dtype=np.int64)
        return np.where(self.node_subtree >= 0, process[self.node_subtree], -1)

    def leaf_partition(self) -> np.ndarray:
        """Majority-owner partition per leaf node (split buckets are rare,
        §II-C-1; ties break toward the smallest partition id).

        One ``np.bincount`` over a combined (leaf, partition) key — no
        per-leaf Python loop.  The cache-statistics and attribution layers
        use this to charge each bucket's remote traffic to a partition.
        """
        tree = self.tree
        out = np.zeros(tree.n_nodes, dtype=np.int64)
        pp = np.asarray(self.particle_partition, dtype=np.int64)
        leaves = tree.leaf_indices
        if len(leaves) == 0:
            return out
        starts = tree.pstart[leaves].astype(np.int64)
        ends = tree.pend[leaves].astype(np.int64)
        lengths = ends - starts
        # Particle positions of every leaf, concatenated, with the owning
        # leaf's rank alongside.
        idx = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths) \
            + np.arange(int(lengths.sum()), dtype=np.int64)
        leaf_rank = np.repeat(np.arange(len(leaves), dtype=np.int64), lengths)
        n_parts = int(pp.max()) + 1 if pp.size else 1
        counts = np.bincount(
            leaf_rank * n_parts + pp[idx], minlength=len(leaves) * n_parts
        ).reshape(len(leaves), n_parts)
        out[leaves] = np.argmax(counts, axis=1)
        return out


def _choose_subtree_roots(tree: Tree, n_subtrees: int) -> list[int]:
    """Cut the tree into at least ``n_subtrees`` disjoint subtrees by
    splitting the largest frontier node until there are enough, preferring
    balanced particle counts."""
    frontier: list[int] = [tree.root]
    while len(frontier) < n_subtrees:
        # Split the frontier node with the most particles that has children.
        counts = [
            (int(tree.pend[i] - tree.pstart[i]), i)
            for i in frontier
            if tree.first_child[i] != -1
        ]
        if not counts:
            break
        _, node = max(counts)
        frontier.remove(node)
        frontier.extend(int(c) for c in tree.children(node))
    # Order by tree-order particle range so subtree blocks are contiguous.
    frontier.sort(key=lambda i: int(tree.pstart[i]))
    return frontier


@traced("decompose", cat="decomp")
def decompose(
    tree: Tree,
    particle_partition: np.ndarray,
    n_subtrees: int,
    n_processes: int | None = None,
) -> Decomposition:
    """Build the Partitions–Subtrees decomposition for a built tree.

    Parameters
    ----------
    tree:
        Built tree; its particles are in tree order.
    particle_partition:
        (N,) partition id per particle *in tree order* (i.e. the Decomposer
        output permuted by the same order as the tree's particles — use
        ``part_ids[tree.particles.orig_index]`` when assignment was done on
        the input ordering).
    n_subtrees:
        How many tree segments to create.
    n_processes:
        Processes to place partitions/subtrees on; defaults to the number of
        partitions.
    """
    from ..core.util import ranges_to_indices  # repro.core imports repro.decomp

    particle_partition = _partition_ids(particle_partition, tree.n_particles)
    n_parts = int(particle_partition.max()) + 1 if len(particle_partition) else 1
    n_processes = n_processes or n_parts

    # --- Subtrees: consistent with the tree ------------------------------
    roots = np.array(_choose_subtree_roots(tree, n_subtrees), dtype=np.int64)
    subtrees = [
        Subtree(
            index=k,
            root=int(r),
            pstart=int(tree.pstart[r]),
            pend=int(tree.pend[r]),
            process=k % n_processes,
        )
        for k, r in enumerate(roots)
    ]
    # The roots' ranges tile [0, N) in order, so a node's subtree is the one
    # its first particle falls in — if the node ends inside it too and is no
    # shallower than the root (an equal range one level up is an ancestor on
    # a single-child chain).
    k = np.searchsorted(tree.pstart[roots], tree.pstart, side="right") - 1
    inside = (tree.pend <= tree.pend[roots][k]) & (tree.level >= tree.level[roots][k])
    node_subtree = np.where(inside, k, -1)

    # --- Partitions: local buckets via leaf sharing (Figs 4-5) -----------
    # Leaf ranges tile [0, N) too: a leaf is unsplit iff the smallest and the
    # largest partition id in its range agree.
    leaves = tree.leaf_indices
    by_start = np.argsort(tree.pstart[leaves])
    starts = tree.pstart[leaves[by_start]]
    owner = np.empty(len(leaves), dtype=np.int64)
    last_owner = np.empty(len(leaves), dtype=np.int64)
    owner[by_start] = np.minimum.reduceat(particle_partition, starts)
    last_owner[by_start] = np.maximum.reduceat(particle_partition, starts)
    is_split = owner != last_owner

    # The particles of split leaves, grouped by (partition, leaf) and in tree
    # order inside a group: partition p's slice of ``rows`` is its
    # ``split_particles`` and every run of one (partition, leaf) is a piece.
    split = np.flatnonzero(is_split)
    s, e = tree.pstart[leaves[split]], tree.pend[leaves[split]]
    rows = ranges_to_indices(s, e)
    group = particle_partition[rows] * len(leaves) + np.repeat(split, e - s)
    order = np.argsort(group, kind="stable")
    rows, group = rows[order], group[order]
    row_part, row_rank = np.divmod(group, len(leaves))
    part_rows = np.searchsorted(row_part, np.arange(n_parts + 1))
    head = np.flatnonzero(np.diff(group, prepend=-1))  # first row of every piece
    piece_base = part_rows[row_part[head]]
    # A bucket is "shared" when some of its particles belong to partitions
    # on other processes than its home Subtree's.
    home = node_subtree[leaves[row_rank]]
    home_proc = np.where(home >= 0, home % n_processes, 0)
    n_shared = int(np.count_nonzero(row_part % n_processes != home_proc))

    # One row per local bucket: (leaf rank, partition, range); a whole leaf's
    # range is in tree order, a piece's indexes its partition's rows.
    whole = np.flatnonzero(~is_split)
    rank = np.concatenate([whole, row_rank[head]])
    part = np.concatenate([owner[whole], row_part[head]])
    start = np.concatenate([tree.pstart[leaves[whole]], head - piece_base])
    end = np.concatenate([tree.pend[leaves[whole]], np.append(head[1:], len(rows)) - piece_base])
    order = np.lexsort((rank, part))  # per partition, tree.leaf_indices order
    rank, start, end = rank[order], start[order], end[order]
    bounds = np.searchsorted(part[order], np.arange(n_parts + 1))
    partitions = [
        Partition(
            index=p,
            process=p % n_processes,
            bucket_leaf=leaves[rank[a:b]],
            bucket_start=start[a:b],
            bucket_end=end[a:b],
            bucket_split=is_split[rank[a:b]],
            split_particles=rows[part_rows[p]:part_rows[p + 1]],
        )
        for p, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    n_split = int(is_split.sum())

    # --- co-location optimisation ----------------------------------------
    # When every leaf's particles map to a single partition AND subtree
    # boundaries align with partition boundaries, the library binds the two
    # by location; we detect the first condition (never-split buckets).
    colocated = n_split == 0

    return Decomposition(
        tree=tree,
        partitions=partitions,
        subtrees=subtrees,
        particle_partition=particle_partition,
        node_subtree=node_subtree,
        n_processes=n_processes,
        n_split_buckets=n_split,
        n_shared_particles=n_shared,
        colocated=colocated,
    )


def _partition_ids(ids: np.ndarray, n_particles: int) -> np.ndarray:
    """``ids`` as int64, or a one-line ValueError: a negative id would file
    its particles under the last partition and a float one be truncated."""
    ids = np.asarray(ids)
    if ids.shape != (n_particles,):
        raise ValueError("particle_partition length must match particle count")
    if ids.dtype.kind not in "iu" or (ids.size and ids.min() < 0):
        raise ValueError("particle_partition must hold non-negative integer partition ids")
    return ids.astype(np.int64, copy=False)


def branch_duplication_count(tree: Tree, particle_partition: np.ndarray) -> int:
    """Tree nodes whose particles span more than one partition.

    In the *traditional* model (no Partitions–Subtrees), each such branch
    node is duplicated on every involved process and must be merged during
    tree build — the synchronisation the paper's model eliminates.  Counting
    them quantifies the saving (ablation bench).
    """
    particle_partition = np.asarray(particle_partition)
    # A node spans multiple partitions iff its contiguous range contains a
    # partition change-point.
    change = np.flatnonzero(np.diff(particle_partition)) + 1  # boundary positions
    if len(change) == 0:
        return 0
    # Node i spans >1 partition iff some adjacent change position c
    # (meaning p[c-1] != p[c]) has both sides inside the node's range:
    # pstart + 1 <= c <= pend - 1.
    lo = np.searchsorted(change, tree.pstart + 1, side="left")
    hi = np.searchsorted(change, tree.pend - 1, side="right")
    return int(np.count_nonzero(hi > lo))
