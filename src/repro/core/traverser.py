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
from .util import ranges_to_indices
from .visitor import Visitor

__all__ = [
    "TraversalStats",
    "Recorder",
    "PairList",
    "LIST_KINDS",
    "InteractionLists",
    "BucketLoadRecorder",
    "Traverser",
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
    """Observer of the (source, target) pairs a traversal evaluates, in the
    engine's evaluation order.

    Each hook receives two equal-length index arrays: pair ``i`` is source
    node ``sources[i]`` against target ``targets[i]``.  How pairs are grouped
    into calls is the schedule's: the frontier walk hands over one
    target-major level of a segment per call, ``transposed`` one source node
    (broadcast) against the targets still interested in it, ``dual-tree``
    and ``priority`` one pair.  The arrays belong to the engine: a recorder
    may keep them but must not write to them.
    """

    def on_open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        pass

    def on_node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        pass

    def on_leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
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


@dataclass(frozen=True)
class PairList:
    """One kind of interaction list in CSR form: the sources of target
    ``targets[i]`` are ``sources[offsets[i]:offsets[i + 1]]``, in the order
    they were recorded.  ``targets`` ascend; ``len()`` counts pairs."""

    targets: np.ndarray
    offsets: np.ndarray
    sources: np.ndarray

    def __len__(self) -> int:
        return int(self.sources.size)

    def pair_targets(self) -> np.ndarray:
        """The target of every entry of ``sources``."""
        return np.repeat(self.targets, np.diff(self.offsets))


#: the interaction-list kinds, one per Recorder hook
LIST_KINDS = ("open", "node", "leaf")


class InteractionLists(Recorder):
    """Recorder that collects, per target, every source whose ``open`` test
    was evaluated (``lists["open"]``), every node approximated (``"node"``)
    and every leaf that interacted exactly (``"leaf"``), each a
    :class:`PairList`.  These lists drive the distributed-fetch statistics
    and the DES workload.

    Each call's pair arrays are kept as they come; reading a kind
    concatenates them and stable-sorts by target.  A target's sources thus
    stay in recording order, forks absorb by concatenation in chunk order,
    and — chunks owning disjoint targets, and a target's pair order not
    depending on which targets share its calls — a chunked run gives the
    bytes of a serial one."""

    def __init__(self) -> None:
        self._calls: dict[str, list] = {kind: [] for kind in LIST_KINDS}
        self._lists: dict[str, PairList] = {}

    def _record(self, kind: str, sources: np.ndarray, targets: np.ndarray) -> None:
        self._calls[kind].append((targets, sources))
        self._lists.pop(kind, None)

    def on_open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        self._record("open", sources, targets)

    def on_node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        self._record("node", sources, targets)

    def on_leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        self._record("leaf", sources, targets)

    def fork(self) -> "InteractionLists":
        return InteractionLists()

    def absorb(self, other: "InteractionLists") -> None:
        for kind in LIST_KINDS:
            self._calls[kind] += other._calls[kind]
            self._lists.pop(kind, None)

    def __getitem__(self, kind: str) -> PairList:
        """The ``kind`` lists (one of :data:`LIST_KINDS`) in CSR form."""
        lists = self._lists.get(kind)
        if lists is None:
            calls = self._calls[kind] or [(np.empty(0, np.int64),) * 2]
            t = np.concatenate([c[0] for c in calls], dtype=np.int64)
            s = np.concatenate([c[1] for c in calls], dtype=np.int64)
            order = np.argsort(t, kind="stable")
            t, s = t[order], s[order]
            self._calls[kind] = [(t, s)]
            starts = np.flatnonzero(np.diff(t, prepend=-1))
            lists = self._lists[kind] = PairList(t[starts], np.append(starts, t.size), s)
        return lists


class BucketLoadRecorder(Recorder):
    """Tallies interaction work per target bucket — the measured load the
    re-balancers consume (Charm++ measures this through the RTS; here the
    traversal reports it directly)."""

    def __init__(self, tree: Tree) -> None:
        self.work = np.zeros(tree.n_nodes, dtype=np.float64)
        self._counts = tree.pend - tree.pstart

    def on_node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        np.add.at(self.work, targets, self._counts[targets])

    def on_leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        np.add.at(self.work, targets, self._counts[sources] * self._counts[targets])

    def fork(self) -> "BucketLoadRecorder":
        out = object.__new__(BucketLoadRecorder)
        out.work = np.zeros_like(self.work)
        out._counts = self._counts
        return out

    def absorb(self, other: "BucketLoadRecorder") -> None:
        self.work += other.work

    def per_particle_load(self, tree: Tree) -> np.ndarray:
        """Spread each bucket's work evenly over its particles -> (N,)."""
        leaves = tree.leaf_indices
        counts = self._counts[leaves]
        out = np.zeros(tree.n_particles)
        out[ranges_to_indices(tree.pstart[leaves], tree.pend[leaves])] = np.repeat(
            self.work[leaves] / np.maximum(counts, 1), counts)
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
