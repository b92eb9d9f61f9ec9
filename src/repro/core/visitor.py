"""The *Visitor* abstraction (paper §II-A-2).

A Visitor tells a traversal when to prune and what to do at each step:

* ``open(source, target)``  — traverse beneath ``source``?  If not, the
  engine calls ``node``; if ``source`` is a leaf and opened, ``leaf``.
* ``node(source, target)``  — consume the node's summary Data (e.g. apply a
  centroid approximation to every target particle).
* ``leaf(source, target)``  — exact interaction with the leaf's particles.
* ``cell(source, target)``  — dual-tree traversals only: open the *target*
  as well (B² child interactions) or keep the target and open only the
  source (B interactions)?

The scalar methods operate on :class:`~repro.trees.SpatialNode` views, just
like the C++ templates in the paper's Fig 7.  The batched hooks
(``open_batch``/``node_batch``/``leaf_batch`` over many targets, the
``*_sources`` mirror over many sources, ``*_pairs`` over flat pair arrays,
and ``done_targets`` for the up-and-down engine's early exit) let vectorised
engines amortise the interpreter cost; their default implementations fall
back to the scalar methods, so a minimal paper-style visitor works with
every engine.
"""

from __future__ import annotations

import numpy as np

from ..trees import SpatialNode, Tree

__all__ = ["Visitor"]


def _group_pairs_by_source(sources: np.ndarray):
    """Yield ``(source, index_array)`` segments of a pair frontier, sorted by
    source.  The stable sort keeps each target's per-source pair order
    deterministic regardless of how the frontier was assembled."""
    order = np.argsort(sources, kind="stable")
    sorted_src = sources[order]
    bounds = np.flatnonzero(sorted_src[1:] != sorted_src[:-1]) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(sorted_src)]])
    for a, b in zip(starts, ends):
        yield int(sorted_src[a]), order[a:b]


class Visitor:
    """Base visitor; subclass and override at least ``open``/``node``/``leaf``.

    Targets are identified by *leaf index* of the target tree; engines pass
    batches of those indices to the batched hooks.
    """

    #: Parallel execution (``repro.exec``): True means the thread backend
    #: may run one shared instance from many workers because every write
    #: targets per-particle rows of the chunk being traversed — chunks are
    #: disjoint, so under the GIL no synchronisation is needed.
    exec_shareable = False

    # -- scalar interface (paper-faithful) ---------------------------------
    def open(self, source: SpatialNode, target: SpatialNode) -> bool:
        raise NotImplementedError

    def node(self, source: SpatialNode, target: SpatialNode) -> None:
        raise NotImplementedError

    def leaf(self, source: SpatialNode, target: SpatialNode) -> None:
        raise NotImplementedError

    def cell(self, source: SpatialNode, target: SpatialNode) -> bool:
        """Dual-tree only; default: always open the target too."""
        return True

    def done(self, target: SpatialNode) -> bool:
        """Early-exit hook for up-and-down traversals (e.g. kNN can stop
        climbing when the current search ball is inside already-visited
        space).  Default: never stop early."""
        return False

    def path_advanced(self, target: SpatialNode, path_node: SpatialNode) -> None:
        """Up-and-down only: called after the top-down pass rooted at
        ``path_node`` (a node on the leaf-to-root path) completes, before
        ``done`` is consulted.  Lets the visitor track how much space has
        been covered (kNN containment test)."""

    def done_targets(self, tree: Tree, targets: np.ndarray, path_nodes: np.ndarray) -> np.ndarray:
        """Up-and-down only, once per round: target ``targets[i]`` has just
        finished the top-down pass rooted at ``path_nodes[i]``; True retires
        it.  Default: the scalar ``path_advanced`` then ``done``, target by
        target; vectorised visitors override it with one array test."""
        out = np.empty(len(targets), dtype=bool)
        for i, (t, p) in enumerate(zip(targets.tolist(), path_nodes.tolist())):
            target = tree.node(t)
            self.path_advanced(target, tree.node(p))
            out[i] = self.done(target)
        return out

    # -- batched over targets (one source node, many target leaves) --------
    def open_batch(self, tree: Tree, source: int, targets: np.ndarray) -> np.ndarray:
        src = tree.node(source)
        return np.fromiter(
            (self.open(src, tree.node(int(t))) for t in targets),
            dtype=bool,
            count=len(targets),
        )

    def node_batch(self, tree: Tree, source: int, targets: np.ndarray) -> None:
        src = tree.node(source)
        for t in targets:
            self.node(src, tree.node(int(t)))

    def leaf_batch(self, tree: Tree, source: int, targets: np.ndarray) -> None:
        src = tree.node(source)
        for t in targets:
            self.leaf(src, tree.node(int(t)))

    # -- batched over (source, target) pairs (the "batched" and
    # "up-and-down" engines) ----------------------------------------------
    # Both carry their frontier as flat, target-major pair arrays and hand
    # them over in slices cut between targets.
    # Defaults group the pairs by source (stable, so per-target ordering is
    # deterministic) and delegate to the *_batch hooks — every existing
    # visitor works unchanged; vectorised visitors override these with the
    # frontier kernels (see repro.trees.kernels).

    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        out = np.empty(len(sources), dtype=bool)
        for src, idx in _group_pairs_by_source(sources):
            out[idx] = np.asarray(self.open_batch(tree, src, targets[idx]), dtype=bool)
        return out

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        for src, idx in _group_pairs_by_source(sources):
            self.node_batch(tree, src, targets[idx])

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        for src, idx in _group_pairs_by_source(sources):
            self.leaf_batch(tree, src, targets[idx])

    # -- batched over sources (many source nodes, one target leaf): the
    # per-bucket ordering --------------------------------------------------
    def open_sources(self, tree: Tree, sources: np.ndarray, target: int) -> np.ndarray:
        tgt = tree.node(target)
        return np.fromiter(
            (self.open(tree.node(int(s)), tgt) for s in sources),
            dtype=bool,
            count=len(sources),
        )

    def node_sources(self, tree: Tree, sources: np.ndarray, target: int) -> None:
        tgt = tree.node(target)
        for s in sources:
            self.node(tree.node(int(s)), tgt)

    def leaf_sources(self, tree: Tree, sources: np.ndarray, target: int) -> None:
        tgt = tree.node(target)
        for s in sources:
            self.leaf(tree.node(int(s)), tgt)

    # -- parallel-execution protocol (repro.exec) --------------------------
    # A visitor opts into worker-side reconstruction by returning a non-None
    # exec_config().  The contract: for a chunk of target leaves,
    #   worker = cls.exec_rebuild(tree, exec_arrays(), exec_config())
    #   <traverse chunk with worker>
    #   self.exec_apply(tree, chunk, worker.exec_collect(tree, chunk))
    # must leave ``self`` bit-identical to having traversed the chunk
    # directly.  Backends call exec_apply in chunk order.

    def exec_config(self) -> dict | None:
        """Small picklable kwargs for :meth:`exec_rebuild`; None means this
        visitor does not support worker-side reconstruction (the backend
        falls back to serial, or to instance sharing for threads)."""
        return None

    def exec_arrays(self) -> dict[str, np.ndarray]:
        """Large read-only arrays the backend shares with workers
        (zero-copy via shared memory for the process backend)."""
        return {}

    @classmethod
    def exec_rebuild(cls, tree: Tree, arrays: dict[str, np.ndarray], config: dict) -> "Visitor":
        """Construct a worker-local visitor over shared ``arrays``."""
        raise NotImplementedError

    def exec_collect(self, tree: Tree, targets: np.ndarray) -> dict[str, np.ndarray]:
        """Extract this (worker) visitor's outputs for ``targets`` — the
        small per-chunk payload shipped back to the parent."""
        raise NotImplementedError

    def exec_apply(self, tree: Tree, targets: np.ndarray, outputs: dict[str, np.ndarray]) -> None:
        """Fold a worker's :meth:`exec_collect` payload into this (parent)
        visitor.  Called once per chunk, in chunk order."""
        raise NotImplementedError
