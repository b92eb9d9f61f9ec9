"""Reference Partitions-Subtrees decomposition: one leaf at a time.

This is ``repro.decomp.decompose`` as it stood before it became array
passes, kept here as the oracle for it (not a second product path): a
``np.unique`` and one bucket object per leaf, and one stack walk of
``reference_subtree_nodes`` per Subtree.  The property tests demand that the
product equals it in every ``Decomposition`` field, in every partition's
bucket list and in what ``exec.chunking`` makes of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.decomp.partitions import Decomposition, Subtree, _choose_subtree_roots
from repro.trees import Tree

__all__ = [
    "reference_decompose", "reference_subtree_nodes", "reference_leaf_of_particle",
    "reference_node_process", "reference_partition_loads",
]


def reference_subtree_nodes(tree: Tree, i: int) -> np.ndarray:
    """The nodes of the subtree rooted at ``i`` by a stack walk (preorder,
    last child first)."""
    out: list[int] = []
    stack = [int(i)]
    while stack:
        n = stack.pop()
        out.append(n)
        fc = tree.first_child[n]
        if fc != -1:
            stack.extend(range(fc, fc + tree.n_children[n]))
    return np.asarray(out, dtype=np.int64)


def reference_leaf_of_particle(tree: Tree) -> np.ndarray:
    """``Tree.leaf_of_particle`` one leaf at a time."""
    out = np.empty(tree.n_particles, dtype=np.int64)
    for leaf in tree.leaf_indices:
        out[tree.pstart[leaf]:tree.pend[leaf]] = leaf
    return out


def reference_node_process(dec: Decomposition) -> np.ndarray:
    """``Decomposition.node_process`` by one subtree walk per Subtree."""
    out = np.full(dec.tree.n_nodes, -1, dtype=np.int64)
    for st in dec.subtrees:
        out[reference_subtree_nodes(dec.tree, st.root)] = st.process
    return out


def reference_partition_loads(dec: Decomposition, load: np.ndarray) -> np.ndarray:
    """``Decomposition.partition_loads`` by ``np.add.at``."""
    out = np.zeros(len(dec.partitions))
    np.add.at(out, dec.particle_partition, load)
    return out


@dataclass
class ReferenceBucket:
    """One partition-local bucket: a leaf (or a split piece of one).

    ``particle_idx`` are tree-order particle indices; for unsplit buckets it
    is the leaf's full range.
    """

    leaf: int
    particle_idx: np.ndarray
    is_split: bool


@dataclass
class ReferencePartition:
    """A unit of traversal load: a set of local buckets."""

    index: int
    buckets: list[ReferenceBucket] = field(default_factory=list)
    process: int = 0

    @property
    def n_particles(self) -> int:
        return sum(len(b.particle_idx) for b in self.buckets)

    @property
    def leaf_ids(self) -> np.ndarray:
        return np.array(sorted({b.leaf for b in self.buckets}), dtype=np.int64)

    def particle_indices(self) -> np.ndarray:
        if not self.buckets:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([b.particle_idx for b in self.buckets])


def reference_decompose(
    tree: Tree,
    particle_partition: np.ndarray,
    n_subtrees: int,
    n_processes: int | None = None,
) -> Decomposition:
    """``decompose`` as it stood before it became array passes."""
    particle_partition = np.asarray(particle_partition, dtype=np.int64)
    if len(particle_partition) != tree.n_particles:
        raise ValueError("particle_partition length must match particle count")
    n_parts = int(particle_partition.max()) + 1 if len(particle_partition) else 1
    n_processes = n_processes or n_parts

    # --- Subtrees: consistent with the tree ------------------------------
    roots = _choose_subtree_roots(tree, n_subtrees)
    subtrees = [
        Subtree(
            index=k,
            root=r,
            pstart=int(tree.pstart[r]),
            pend=int(tree.pend[r]),
            process=k % n_processes,
        )
        for k, r in enumerate(roots)
    ]
    node_subtree = np.full(tree.n_nodes, -1, dtype=np.int64)
    for st in subtrees:
        node_subtree[reference_subtree_nodes(tree, st.root)] = st.index

    # --- Partitions: local buckets via leaf sharing (Figs 4-5) -----------
    partitions = [ReferencePartition(index=p, process=p % n_processes) for p in range(n_parts)]
    n_split = 0
    n_shared = 0
    leaves = tree.leaf_indices
    # Subtree id per leaf tells us the bucket's home; a bucket is "shared"
    # when some of its particles belong to partitions on other processes.
    for leaf in leaves:
        s, e = int(tree.pstart[leaf]), int(tree.pend[leaf])
        owners = particle_partition[s:e]
        uniq = np.unique(owners)
        if len(uniq) == 1:
            partitions[int(uniq[0])].buckets.append(
                ReferenceBucket(leaf=int(leaf), particle_idx=np.arange(s, e), is_split=False)
            )
            continue
        n_split += 1
        home_subtree = node_subtree[leaf]
        home_proc = subtrees[home_subtree].process if home_subtree >= 0 else 0
        for p in uniq:
            idx = np.arange(s, e)[owners == p]
            partitions[int(p)].buckets.append(
                ReferenceBucket(leaf=int(leaf), particle_idx=idx, is_split=True)
            )
            if partitions[int(p)].process != home_proc:
                n_shared += len(idx)

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


