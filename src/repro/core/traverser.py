"""Traverser interface, traversal statistics, and recorders.

The *Traverser* (paper §II-A-2) fixes the order in which tree nodes are
considered; the Visitor decides pruning and actions.  There is one Visitor
hook family (``open``/``node``/``leaf``, scalar or ``*_pairs`` — see
:mod:`repro.core.visitor`) and an ordering is a *schedule* over it, never a
second copy of a visitor's kernels.  Three schedules walk the same top-down
(source node, target bucket) pair set (:func:`top_down_engines`):

* :class:`~repro.core.batched.BatchedTraverser` — the production engine and
  the default: the pair frontier advanced level by level in work-bounded
  segments, every visitor decision a flat array kernel.
* :class:`~repro.core.topdown.TransposedTraverser` — the *ordering* of
  ParaTreeT's locality-enhancing loop transposition: each tree node is
  processed against the whole batch of target buckets that still need it
  (Table II, the memsim traces).
* :class:`~repro.core.topdown.PerBucketTraverser` — the *ordering* of the
  standard DFS ("BasicTrav" in Fig 10, and how ChaNGa walks): the batched
  engine's frontier walk, one target bucket at a time.

Anything whose output depends on visit order names one of the two orderings
explicitly; everything else takes ``Configuration.traverser``.  The others:

* :class:`~repro.core.upanddown.UpAndDownTraverser` — top-down passes from
  each node on the leaf-to-root path; for criteria that tighten during the
  traversal (kNN).  Round-synchronous: every target bucket's walk advances
  together, one round per path node, on the batched engine's pair frontier
  (same hooks, same budgets), and ``Visitor.done_targets`` retires the
  finished targets between rounds.
* :class:`~repro.core.dualtree.DualTreeTraverser` — node-node interactions
  controlled by ``cell()``.
* :class:`~repro.core.priority.PriorityTraverser` — best-first, one pair at
  a time.

All engines produce identical Visitor callback *sets* (same interactions,
possibly different order/batching) — the equivalence tests rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import get_telemetry
from ..trees import Tree
from .visitor import Visitor

__all__ = [
    "TraversalStats",
    "Recorder",
    "InteractionLists",
    "BucketLoadRecorder",
    "Traverser",
    "record_pairs",
    "get_traverser",
    "register_traverser",
    "top_down_engines",
]


@dataclass
class TraversalStats:
    """Counters accumulated during one traversal.

    ``*_interactions`` count (source node, target bucket) pairs;
    ``pp_interactions`` counts particle-particle pairs evaluated exactly at
    leaves — the quantity that dominates compute cost and that the DES uses
    to convert a traversal into simulated work.
    """

    opens: int = 0
    node_interactions: int = 0
    leaf_interactions: int = 0
    pp_interactions: int = 0
    pn_interactions: int = 0  # particle-node pairs via node() approximations
    nodes_visited: int = 0
    targets: int = 0

    def merge(self, other: "TraversalStats") -> "TraversalStats":
        self.opens += other.opens
        self.node_interactions += other.node_interactions
        self.leaf_interactions += other.leaf_interactions
        self.pp_interactions += other.pp_interactions
        self.pn_interactions += other.pn_interactions
        self.nodes_visited += other.nodes_visited
        self.targets += other.targets
        return self

    def as_dict(self) -> dict[str, int]:
        return {
            "opens": self.opens,
            "node_interactions": self.node_interactions,
            "leaf_interactions": self.leaf_interactions,
            "pp_interactions": self.pp_interactions,
            "pn_interactions": self.pn_interactions,
            "nodes_visited": self.nodes_visited,
            "targets": self.targets,
        }


class Recorder:
    """Observer of traversal events, in the engine's actual evaluation order.

    Every callback receives arrays of source node indices and target leaf
    indices with outer-product semantics ("each source against each
    target").  One of the two arrays has length 1 depending on the engine's
    batching direction — which is exactly the memory-access-order
    information the cache simulator consumes.
    """

    def on_open(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        pass

    def on_node(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        pass

    def on_leaf(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        pass

    # -- parallel execution (repro.exec) -----------------------------------
    def fork(self) -> "Recorder | None":
        """An empty recorder of the same kind for one worker chunk, or None
        when this recorder cannot be split (backends then run serially).
        After the chunk completes the backend hands the fork back through
        :meth:`absorb`, in chunk order."""
        return None

    def absorb(self, other: "Recorder") -> None:
        """Merge a completed fork back in (chunk order)."""
        raise NotImplementedError


def record_pairs(recorder, kind: str, tree: Tree, sources: np.ndarray,
                 targets: np.ndarray) -> None:
    """Deliver flat, target-major (source, target) pairs to ``recorder``'s
    ``on_<kind>`` hook (``kind``: ``"open"``, ``"node"`` or ``"leaf"``).

    A recorder that defines ``on_<kind>_pairs`` takes the pair arrays whole.
    Any other gets one outer-product callback per target run — many
    sources, one target, the per-bucket direction — so a target's recorded
    source sequence is its own pair order, whichever other targets share
    the arrays."""
    whole = getattr(recorder, f"on_{kind}_pairs", None)
    if whole is not None:
        whole(tree, sources, targets)
        return
    callback = getattr(recorder, f"on_{kind}")
    bounds = (np.flatnonzero(targets[1:] != targets[:-1]) + 1).tolist()
    for a, b in zip([0, *bounds], [*bounds, targets.size]):
        callback(tree, sources[a:b], targets[a:a + 1])


class InteractionLists(Recorder):
    """Recorder that collects, per target bucket, which source nodes were
    approximated (``node_lists``) and which leaves interacted exactly
    (``leaf_lists``), plus every node whose open() was evaluated
    (``visited``).  These lists drive the distributed-fetch statistics and
    the FDPS-style bulk-interaction comparison."""

    def __init__(self) -> None:
        self.node_lists: dict[int, list[int]] = {}
        self.leaf_lists: dict[int, list[int]] = {}
        self.visited: dict[int, list[int]] = {}

    def _extend(self, store: dict[int, list[int]], sources: np.ndarray, targets: np.ndarray) -> None:
        src = [int(s) for s in np.atleast_1d(sources)]
        for t in np.atleast_1d(targets):
            store.setdefault(int(t), []).extend(src)

    def on_open(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        self._extend(self.visited, sources, targets)

    def on_node(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        self._extend(self.node_lists, sources, targets)

    def on_leaf(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        self._extend(self.leaf_lists, sources, targets)

    def fork(self) -> "InteractionLists":
        return InteractionLists()

    def absorb(self, other: "InteractionLists") -> None:
        # Chunks own disjoint target buckets, so per-target lists come from
        # exactly one fork and stay identical to a serial run.
        for mine, theirs in (
            (self.node_lists, other.node_lists),
            (self.leaf_lists, other.leaf_lists),
            (self.visited, other.visited),
        ):
            for t, src in theirs.items():
                mine.setdefault(t, []).extend(src)


class BucketLoadRecorder(Recorder):
    """Tallies interaction work per target bucket — the measured load the
    re-balancers consume (Charm++ measures this through the RTS; here the
    traversal reports it directly)."""

    def __init__(self, tree: Tree) -> None:
        self.work = np.zeros(tree.n_nodes, dtype=np.float64)
        self._counts = tree.pend - tree.pstart

    def on_node(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        t = np.atleast_1d(targets)
        self.work[t] += len(np.atleast_1d(sources)) * self._counts[t]

    def on_leaf(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        t = np.atleast_1d(targets)
        src_particles = int(self._counts[np.atleast_1d(sources)].sum())
        self.work[t] += src_particles * self._counts[t]

    def fork(self) -> "BucketLoadRecorder":
        out = object.__new__(BucketLoadRecorder)
        out.work = np.zeros_like(self.work)
        out._counts = self._counts
        return out

    def absorb(self, other: "BucketLoadRecorder") -> None:
        self.work += other.work

    def per_particle_load(self, tree: Tree) -> np.ndarray:
        """Spread each bucket's work evenly over its particles -> (N,)."""
        out = np.zeros(tree.n_particles)
        for leaf in tree.leaf_indices:
            s, e = int(tree.pstart[leaf]), int(tree.pend[leaf])
            if e > s and self.work[leaf] > 0:
                out[s:e] = self.work[leaf] / (e - s)
        return out


class Traverser:
    """Base class: a traversal strategy over one tree.

    Subclasses implement :meth:`_traverse` (preferred — :meth:`traverse`
    then wraps every run in a telemetry span and folds the stats into the
    current metrics registry) or override :meth:`traverse` wholesale.
    ``targets`` defaults to all leaves of the tree (every bucket computes);
    Partitions pass the subset of buckets they own.
    """

    name: str = "abstract"

    def traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        """Run the traversal (telemetry-instrumented entry point)."""
        visitor.check_hooks()
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return self._traverse(tree, visitor, targets, recorder)
        with telemetry.tracer.span(
            f"traverse.{self.name}", cat="traversal", visitor=type(visitor).__name__
        ):
            stats = self._traverse(tree, visitor, targets, recorder)
        telemetry.metrics.absorb_traversal_stats(stats, engine=self.name)
        return stats

    def _traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        raise NotImplementedError

    @staticmethod
    def _resolve_targets(tree: Tree, targets: np.ndarray | None) -> np.ndarray:
        if targets is None:
            return tree.leaf_indices.copy()
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size and (targets.min() < 0 or targets.max() >= tree.n_nodes
                             or np.any(tree.first_child[targets] != -1)
                             or np.unique(targets).size != targets.size):
            raise ValueError("targets must be distinct leaf indices")
        return targets


_TRAVERSERS: dict[str, type[Traverser]] = {}
_TOP_DOWN: list[str] = []


def register_traverser(name: str, cls: type[Traverser], top_down: bool = False) -> None:
    """Register a traversal strategy (users may add e.g. priority-driven
    traversals for ray tracing, as the paper suggests).  ``top_down`` lists
    it among the engines ``Configuration.traverser`` / ``--traverser`` may
    name: interchangeable walks of one (source, target-bucket) pair set."""
    _TRAVERSERS[name] = cls
    if top_down and name not in _TOP_DOWN:
        _TOP_DOWN.append(name)


def top_down_engines() -> tuple[str, ...]:
    """Names registered with ``top_down=True``, in registration order."""
    return tuple(_TOP_DOWN)


def get_traverser(name: str) -> Traverser:
    """Instantiate a registered traverser by name."""
    try:
        return _TRAVERSERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown traverser {name!r}; available: {sorted(_TRAVERSERS)}"
        ) from None
