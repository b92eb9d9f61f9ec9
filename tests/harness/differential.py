"""Differential engine/backend equivalence harness.

This is the template for validating any future traversal engine or
execution backend: run one workload through every (engine × backend ×
worker-count) combination and require

* **bit-identical outputs** — accelerations, densities, neighbour sets —
  against the serial oracle (``np.array_equal``, not allclose);
* **equal interaction counts** — the :class:`TraversalStats` fields that
  count work (opens, node/leaf/pp/pn interactions, targets).
  ``nodes_visited`` is deliberately excluded: the transposed engine visits
  a node once per *batch*, so chunking the targets legitimately revisits
  upper nodes (the interaction set is unchanged — the property the paper's
  engines guarantee and Curtin et al.'s tree-independent framing formalises);
* **equal interaction lists** when a recorder is attached: the targets,
  offsets and sources of every kind, byte for byte.

Usage::

    base = differential_matrix(tree, "transposed", make_visitor, collect)

where ``make_visitor(tree)`` builds a fresh visitor and ``collect(visitor)``
returns a dict of output arrays to compare.  Visitors used with the
``processes`` backend must be defined in an importable module (like the
:class:`CountInRadiusVisitor` here), not in a test function body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.traverser import LIST_KINDS, InteractionLists, TraversalStats
from repro.core.visitor import Visitor
from repro.exec import get_backend
from repro.geometry.box import boxes_box_distance_sq
from repro.trees import Tree

__all__ = [
    "INTERACTION_KEYS",
    "BACKENDS",
    "WORKER_COUNTS",
    "RunResult",
    "CountInRadiusVisitor",
    "ScalarCountInRadiusVisitor",
    "run_combination",
    "assert_equivalent",
    "list_bytes",
    "differential_matrix",
    "attribution_matrix",
]

#: TraversalStats fields that must be invariant across engines' batching
#: and across backends' chunking (everything except nodes_visited).
INTERACTION_KEYS = (
    "opens",
    "node_interactions",
    "leaf_interactions",
    "pp_interactions",
    "pn_interactions",
    "targets",
)

BACKENDS = ("serial", "threads", "processes")
WORKER_COUNTS = (1, 2, 4)


@dataclass
class RunResult:
    """One (engine, backend, workers) run, reduced to comparable pieces."""

    label: str
    outputs: dict[str, np.ndarray]
    counts: dict[str, int]
    stats: TraversalStats
    lists: InteractionLists | None = None
    mode: str = "serial"
    extra: dict[str, Any] = field(default_factory=dict)


class CountInRadiusVisitor(Visitor):
    """Integer-exact fixed-radius pair counter (hypothesis workhorse).

    Counts, per particle, how many *other* particles lie within ``radius``.
    Integer outputs make every comparison exact regardless of evaluation
    order, so any engine/backend discrepancy is a real traversal bug, never
    floating-point reassociation.  Written in the pair form only; the scalar
    ``open``/``node``/``leaf`` are the base class's.
    """

    def __init__(self, tree: Tree, radius: float) -> None:
        self.tree = tree
        self.radius = float(radius)
        self.r2 = self.radius * self.radius
        self.counts = np.zeros(tree.n_particles, dtype=np.int64)

    # a source box farther from the target box than the radius cannot
    # contribute any pair, so node_pairs on pruned nodes is correctly a no-op
    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return boxes_box_distance_sq(
            tree.box_lo[sources], tree.box_hi[sources],
            tree.box_lo[targets], tree.box_hi[targets],
        ) <= self.r2

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        pass

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        for src, tgt in zip(sources.tolist(), targets.tolist()):
            self._count(src, tgt)

    def _count(self, src: int, tgt: int) -> None:
        t = self.tree
        pos = t.particles.position
        src_idx = np.arange(t.pstart[src], t.pend[src])
        ts, te = int(t.pstart[tgt]), int(t.pend[tgt])
        tgt_idx = np.arange(ts, te)
        d = pos[src_idx][None, :, :] - pos[tgt_idx][:, None, :]
        d2 = np.einsum("tcj,tcj->tc", d, d)
        within = d2 <= self.r2
        within &= tgt_idx[:, None] != src_idx[None, :]  # exclude self
        self.counts[ts:te] += within.sum(axis=1)

    # -- parallel-execution protocol ---------------------------------------
    def exec_config(self) -> dict:
        return {"radius": self.radius}

    @classmethod
    def exec_rebuild(cls, tree, arrays, config) -> "CountInRadiusVisitor":
        return cls(tree, config["radius"])

    def exec_collect(self, tree, targets):
        from repro.core.util import ranges_to_indices

        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        return {"counts": self.counts[rows]}

    def exec_apply(self, tree, targets, outputs) -> None:
        from repro.core.util import ranges_to_indices

        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        self.counts[rows] = outputs["counts"]


class ScalarCountInRadiusVisitor(Visitor):
    """:class:`CountInRadiusVisitor` written the other way round — scalar
    ``open``/``node``/``leaf`` only, the pair hooks are the base class's —
    so the two must agree on every engine (the hook-derivation matrix)."""

    __init__ = CountInRadiusVisitor.__init__
    _count = CountInRadiusVisitor._count

    def open(self, source, target) -> bool:
        t = self.tree
        return bool(boxes_box_distance_sq(
            t.box_lo[source.index], t.box_hi[source.index],
            t.box_lo[target.index], t.box_hi[target.index],
        ) <= self.r2)

    def node(self, source, target) -> None:
        pass

    def leaf(self, source, target) -> None:
        self._count(source.index, target.index)


def brute_force_radius_counts(positions: np.ndarray, radius: float) -> np.ndarray:
    """O(N²) oracle for :class:`CountInRadiusVisitor`."""
    d = positions[None, :, :] - positions[:, None, :]
    d2 = np.einsum("ijc,ijc->ij", d, d)
    within = d2 <= radius * radius
    np.fill_diagonal(within, False)
    return within.sum(axis=1).astype(np.int64)


def run_combination(
    tree: Tree,
    engine: str,
    make_visitor: Callable[[Tree], Visitor],
    collect: Callable[[Visitor], dict[str, np.ndarray]],
    backend: str = "serial",
    workers: int = 1,
    record: bool = False,
    decomposition=None,
    backend_opts: dict[str, Any] | None = None,
) -> RunResult:
    """Run one (engine, backend, workers) combination and package results.

    ``backend_opts`` passes through to :func:`~repro.exec.get_backend`
    (e.g. ``supervise=...`` / ``exec_faults=...`` for fault-recovery
    differential runs); the backend's supervision outcome, when any, lands
    in ``RunResult.extra["supervision"]``.
    """
    visitor = make_visitor(tree)
    recorder = InteractionLists() if record else None
    b = get_backend(backend, workers=workers, **(backend_opts or {}))
    try:
        stats = b.run(
            tree, engine, visitor, recorder=recorder, decomposition=decomposition
        )
        mode = b.last_mode
        supervision = b.last_supervision
    finally:
        b.shutdown()
    as_dict = stats.as_dict()
    return RunResult(
        label=f"{engine}/{backend}/w{workers}",
        outputs={k: np.asarray(v) for k, v in collect(visitor).items()},
        counts={k: as_dict[k] for k in INTERACTION_KEYS},
        stats=stats,
        lists=recorder,
        mode=mode,
        extra={"supervision": supervision} if supervision is not None else {},
    )


def assert_equivalent(base: RunResult, other: RunResult) -> None:
    """Bit-identical outputs + equal interaction counts (+ equal lists)."""
    assert base.outputs.keys() == other.outputs.keys(), (
        f"{other.label}: output keys differ from {base.label}"
    )
    for name in base.outputs:
        a, b = base.outputs[name], other.outputs[name]
        assert a.dtype == b.dtype and a.shape == b.shape, (
            f"{other.label}: {name} dtype/shape {b.dtype}{b.shape} != "
            f"{a.dtype}{a.shape} ({base.label})"
        )
        assert np.array_equal(a, b, equal_nan=True), (
            f"{other.label}: {name} not bit-identical to {base.label} "
            f"(max |diff| = {np.max(np.abs(a - b)) if a.size else 0})"
        )
    assert base.counts == other.counts, (
        f"{other.label}: interaction counts {other.counts} != "
        f"{base.counts} ({base.label})"
    )
    if base.lists is not None and other.lists is not None:
        mine, theirs = list_bytes(base.lists), list_bytes(other.lists)
        for name in mine:
            assert mine[name] == theirs[name], f"{other.label}: interaction lists {name} differ"


def list_bytes(lists: InteractionLists) -> dict[str, bytes]:
    """The recorded interaction lists as bytes: the targets, offsets and
    sources of each kind, in :data:`LIST_KINDS` order."""
    return {f"{kind}.{field}": getattr(lists[kind], field).tobytes()
            for kind in LIST_KINDS for field in ("targets", "offsets", "sources")}


def attribution_matrix(
    tree: Tree,
    engine: str,
    make_visitor: Callable[[Tree], Visitor],
    backends: tuple[str, ...] = BACKENDS,
    workers: tuple[int, ...] = WORKER_COUNTS,
    decomposition=None,
):
    """Assert the attribution arrays are **bit-identical** for every
    (backend × workers) combination against the serial oracle.

    This is the acceptance contract of ``repro.obs.attr``: integer
    counters scattered with ``np.add.at``, forks absorbed in chunk order —
    so chunking and scheduling must be invisible in the arrays, down to
    the last bit.  Returns the serial :class:`AttributionRecorder`.
    """
    from repro.obs import AttributionRecorder
    from repro.obs.attr import ARRAY_FIELDS

    def run_one(backend: str, w: int) -> AttributionRecorder:
        visitor = make_visitor(tree)
        rec = AttributionRecorder(tree.n_nodes)
        b = get_backend(backend, workers=w)
        try:
            b.run(tree, engine, visitor, recorder=rec,
                  decomposition=decomposition)
        finally:
            b.shutdown()
        return rec

    base = run_one("serial", 1)
    for backend in backends:
        if backend == "serial":
            continue
        for w in workers:
            other = run_one(backend, w)
            for name in ARRAY_FIELDS:
                a = getattr(base, name)
                b_arr = getattr(other, name)
                assert np.array_equal(a, b_arr), (
                    f"{engine}/{backend}/w{w}: attribution array {name!r} "
                    f"diverged from serial "
                    f"(first diff at node {int(np.argmax(a != b_arr))})"
                )
            assert np.array_equal(base.cost_ns(), other.cost_ns())
    return base


def differential_matrix(
    tree: Tree,
    engine: str,
    make_visitor: Callable[[Tree], Visitor],
    collect: Callable[[Visitor], dict[str, np.ndarray]],
    backends: tuple[str, ...] = BACKENDS,
    workers: tuple[int, ...] = WORKER_COUNTS,
    record: bool = False,
    decomposition=None,
    expect_parallel: bool = False,
) -> RunResult:
    """Assert serial ≡ every (backend × workers) combination; returns the
    serial oracle result for further checks."""
    base = run_combination(
        tree, engine, make_visitor, collect, "serial", 1,
        record=record, decomposition=decomposition,
    )
    for backend in backends:
        if backend == "serial":
            continue
        for w in workers:
            other = run_combination(
                tree, engine, make_visitor, collect, backend, w,
                record=record, decomposition=decomposition,
            )
            if expect_parallel and w > 1:
                assert other.mode == "parallel", (
                    f"{other.label}: expected parallel execution, "
                    f"got {other.mode}"
                )
            assert_equivalent(base, other)
    return base
