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

There is one hook family in two forms.  The scalar form above works on
:class:`~repro.trees.SpatialNode` views, like the C++ templates in the
paper's Fig 7.  The pair form — ``open_pairs`` / ``node_pairs`` /
``leaf_pairs`` over flat, target-major ``(source, target)`` index arrays,
plus ``done_targets`` for the up-and-down early exit — is what every
top-down engine calls, so one numpy kernel serves a whole frontier slice.
Each form is the other's default: a visitor writes ``open``/``node``/``leaf``
once, in whichever form suits it, and runs on every engine.  The *order* in
which pairs arrive belongs to the Traverser, never to the Visitor.
"""

from __future__ import annotations

import numpy as np

from ..trees import SpatialNode, Tree

__all__ = ["Visitor"]


def _one_pair(source: SpatialNode, target: SpatialNode) -> tuple[Tree, np.ndarray, np.ndarray]:
    return source.tree, np.array([source.index]), np.array([target.index])


def _node_pairs(tree: Tree, sources: np.ndarray, targets: np.ndarray):
    return zip(map(tree.node, sources.tolist()), map(tree.node, targets.tolist()))


class Visitor:
    """Base visitor; subclass and override each of ``open``/``node``/``leaf``
    in its scalar or its ``*_pairs`` form (targets are *leaf indices* of the
    target tree there).  The base class derives the other form."""

    #: Parallel execution (``repro.exec``): True means the thread backend
    #: may run one shared instance from many workers because every write
    #: targets per-particle rows of the chunk being traversed — chunks are
    #: disjoint, so under the GIL no synchronisation is needed.
    exec_shareable = False

    def check_hooks(self) -> None:
        """Raise unless ``open``, ``node`` and ``leaf`` each have one form."""
        cls = type(self)
        for name in ("open", "node", "leaf"):
            pairs = f"{name}_pairs"
            if getattr(cls, name) is getattr(Visitor, name) \
                    and getattr(cls, pairs) is getattr(Visitor, pairs):
                raise TypeError(f"{cls.__name__} must override {name}() or {pairs}()")

    # -- scalar form (paper-faithful); default: the pair form on one pair ----
    def open(self, source: SpatialNode, target: SpatialNode) -> bool:
        return bool(self.open_pairs(*_one_pair(source, target))[0])

    def node(self, source: SpatialNode, target: SpatialNode) -> None:
        self.node_pairs(*_one_pair(source, target))

    def leaf(self, source: SpatialNode, target: SpatialNode) -> None:
        self.leaf_pairs(*_one_pair(source, target))

    def cell(self, source: SpatialNode, target: SpatialNode) -> bool:
        """Dual-tree only; default: always open the target too."""
        return True

    def done(self, target: SpatialNode) -> bool:
        """Early exit: True stops ``target``'s walk (consulted through
        ``done_targets`` between rounds by up-and-down).  Default: never
        stop early."""
        return False

    # -- pair form (what the engines call); default: the scalar form, pair by
    # pair in the order given -----------------------------------------------
    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return np.fromiter((self.open(s, t) for s, t in _node_pairs(tree, sources, targets)),
                           dtype=bool, count=len(sources))

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        for s, t in _node_pairs(tree, sources, targets):
            self.node(s, t)

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        for s, t in _node_pairs(tree, sources, targets):
            self.leaf(s, t)

    def done_targets(self, tree: Tree, targets: np.ndarray, path_nodes: np.ndarray) -> np.ndarray:
        """Up-and-down only, once per round: target ``targets[i]`` has just
        finished the top-down pass rooted at ``path_nodes[i]`` (a node on its
        leaf-to-root path); True retires it.  Default: scalar ``done``."""
        return np.fromiter((self.done(tree.node(t)) for t in targets.tolist()),
                           dtype=bool, count=len(targets))

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
