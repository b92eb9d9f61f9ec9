"""Execution backend interface and registry.

A backend runs one registered :class:`~repro.core.traverser.Traverser` over
a set of target buckets, possibly concurrently, and must satisfy the
**determinism contract**: for any worker count the visitor ends up in a
state bit-identical to a serial run over the same targets, and the merged
:class:`~repro.core.traverser.TraversalStats` interaction counts are equal.
Backends achieve this by chunking targets exactly (see
:func:`~repro.exec.chunking.chunk_targets`) and reducing per-chunk results
in chunk order, never completion order.

Visitors opt into the richer backends through the parallel-execution
protocol on :class:`~repro.core.visitor.Visitor` (``exec_config`` /
``exec_arrays`` / ``exec_rebuild`` / ``exec_collect`` / ``exec_apply``,
plus the ``exec_shareable`` flag for lock-free thread sharing).  A visitor
that supports neither is executed serially — correctness is never traded
for concurrency.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..core.traverser import Recorder, TraversalStats, Traverser, get_traverser
from ..obs import Log2Histogram, get_telemetry
from ..trees import Tree

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "get_backend",
    "register_backend",
    "BACKEND_NAMES",
]


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


class ExecutionBackend:
    """Base class: runs traversals over chunked targets.

    Subclasses implement :meth:`_run_chunks`; the base class handles target
    resolution, recorder forking, serial fallback, and telemetry
    (``exec.*`` metrics plus one completed span per chunk task).
    """

    name: str = "abstract"
    #: whether this backend ever runs more than one chunk concurrently
    parallel: bool = True
    #: whether the supervisor may Future.cancel() abandoned attempts
    #: (process pools must not — see ChunkSupervisor.cancel_abandoned)
    supervisor_cancels: bool = True

    def __init__(self, workers: int | None = None, supervise=None,
                 exec_faults=None) -> None:
        self.workers = int(workers) if workers else _default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        #: real-execution fault plan injected into workers (tests/chaos)
        self.exec_faults = exec_faults
        #: supervision config: ``True``/a ``SupervisorConfig`` arms the
        #: supervised dispatch loop; ``False`` forces the PR 5 blocking
        #: dispatch; ``None`` auto-arms only when a fault plan is present
        #: (running injected faults unsupervised is asking to die — which
        #: is exactly what ``supervise=False`` is for demonstrating).
        from .supervise import SupervisorConfig

        if supervise is False:
            self.supervise_config = None
        elif supervise is True:
            self.supervise_config = SupervisorConfig()
        elif supervise is None:
            self.supervise_config = (
                SupervisorConfig()
                if exec_faults is not None and exec_faults.any_faults
                else None
            )
        else:
            self.supervise_config = supervise
        self._supervisor = None
        #: how the last ``run`` executed ("parallel" | "degraded" |
        #: "serial-fallback" | "serial"); tests and telemetry read this
        self.last_mode = "serial"
        #: supervision outcome of the last run (a
        #: :meth:`~repro.exec.supervise.SupervisionStats.to_dict`), or None
        #: when the last run was unsupervised
        self.last_supervision: dict[str, int] | None = None
        self._last_degraded = False
        #: per-chunk task dicts from the last parallel run (worker lanes for
        #: the ``repro top`` dashboard)
        self.last_tasks: list[dict[str, Any]] = []
        #: merged worker-side latency distribution from the last parallel run
        self.last_latency: Log2Histogram | None = None
        #: worker tree cache stats from the last run (process backend only)
        self.last_cache_stats: dict[str, Any] | None = None
        #: pipeline-phase span id captured at submission (trace context
        #: stamped into every exec.task event)
        self._phase_span: int | None = None

    # -- public API ---------------------------------------------------------
    def run(
        self,
        tree: Tree,
        traverser: str | Traverser,
        visitor: Any,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
        *,
        decomposition=None,
        shared_cache=None,
    ) -> TraversalStats:
        """Traverse ``targets`` with ``visitor``, in parallel when possible.

        ``decomposition`` steers the chunking (one chunk per Partition);
        ``shared_cache`` (thread backend only) is a
        :class:`~repro.cache.concurrent.SharedTreeCache` the worker threads
        warm concurrently, exercising its wait-free fill path.
        """
        engine = get_traverser(traverser) if isinstance(traverser, str) else traverser
        visitor.check_hooks()
        targets = Traverser._resolve_targets(tree, targets)
        chunks = self._chunk(tree, targets, decomposition)
        self.last_supervision = None
        self._last_degraded = False
        if not self.parallel or self.workers <= 1 or len(chunks) <= 1:
            return self._serial(engine, tree, visitor, targets, recorder, mode="serial")
        forks = None
        if recorder is not None:
            forks = [recorder.fork() for _ in chunks]
            if any(f is None for f in forks):
                return self._serial(engine, tree, visitor, targets, recorder,
                                    mode="serial-fallback")
        if not self._supports(visitor):
            return self._serial(engine, tree, visitor, targets, recorder,
                                mode="serial-fallback")
        # Trace context: remember which pipeline-phase span owns this run so
        # the worker task spans recorded after the fact can name their parent.
        tel = get_telemetry()
        self._phase_span = tel.tracer.current_span_id() if tel.enabled else None
        stats = self._run_chunks(engine, tree, visitor, chunks, forks,
                                 shared_cache=shared_cache)
        if forks is not None:
            for fork in forks:
                recorder.absorb(fork)
        # "degraded" = the run completed but supervision had to intervene
        # (retry / redispatch / worker death / quarantine); surfaced through
        # IterationReport and `repro top` so operators see it.
        self.last_mode = "degraded" if self._last_degraded else "parallel"
        self._record_run(len(chunks), len(targets))
        return stats

    def shutdown(self) -> None:
        """Release pools and shared resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- subclass hooks -----------------------------------------------------
    def _supports(self, visitor: Any) -> bool:
        """Can this backend run ``visitor`` concurrently?"""
        return True

    def _run_chunks(
        self,
        engine: Traverser,
        tree: Tree,
        visitor: Any,
        chunks: list[np.ndarray],
        forks: list[Recorder] | None,
        shared_cache=None,
    ) -> TraversalStats:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------
    def _make_supervisor(self):
        """The (persistent) :class:`~repro.exec.supervise.ChunkSupervisor`
        for this backend, or None when supervision is off.  Persisting it
        across runs lets the latency-seeded deadline tighten as chunk
        durations accumulate."""
        cfg = self.supervise_config
        if cfg is None or not cfg.enabled:
            return None
        if self._supervisor is None or self._supervisor.config is not cfg:
            from .supervise import ChunkSupervisor

            self._supervisor = ChunkSupervisor(
                cfg, self.name, cancel_abandoned=self.supervisor_cancels
            )
        return self._supervisor

    def _finish_supervised(self, sup_stats) -> None:
        """Publish one supervised run's outcome (called by subclasses)."""
        self.last_supervision = sup_stats.to_dict()
        self._last_degraded = sup_stats.degraded

    def _chunk(self, tree: Tree, targets: np.ndarray, decomposition) -> list[np.ndarray]:
        from .chunking import chunk_targets

        return chunk_targets(tree, targets, decomposition=decomposition,
                             n_chunks=4 * self.workers)

    def _serial(self, engine, tree, visitor, targets, recorder, mode: str) -> TraversalStats:
        self.last_mode = mode
        tel = get_telemetry()
        if tel.enabled and mode == "serial-fallback":
            tel.metrics.counter("exec.serial_fallbacks", backend=self.name).inc()
        return engine.traverse(tree, visitor, targets, recorder)

    def _record_run(self, n_chunks: int, n_targets: int) -> None:
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.metrics.counter("exec.traversals", backend=self.name).inc()
        tel.metrics.counter("exec.chunks", backend=self.name).inc(n_chunks)
        tel.metrics.gauge("exec.workers", backend=self.name).set(self.workers)
        tel.metrics.gauge("exec.targets", backend=self.name).set(n_targets)

    def _record_tasks(self, tasks: list[dict[str, Any]]) -> None:
        """Emit one completed span per chunk task and reduce worker-side
        latency histograms.

        Workers time themselves and the main thread records afterwards —
        the Tracer's nesting stack is not thread-safe, so worker threads
        and processes never touch it directly.  Each task may carry a
        ``latency`` histogram fork recorded on the worker's own clock; they
        are merged here in chunk order (never completion order), so the
        reduced distribution is identical for any worker count.
        """
        self.last_tasks = tasks
        tel = get_telemetry()
        if not tel.enabled:
            return
        phase_span = self._phase_span
        flight = tel.flight
        merged = Log2Histogram()
        for t in tasks:
            extra: dict[str, Any] = {}
            if phase_span is not None:
                extra["phase_span"] = phase_span
            if "clock_offset" in t:
                extra["clock_offset"] = t["clock_offset"]
            tel.tracer.complete(
                "exec.task", t["start"], t["end"], cat="exec",
                tid=int(t.get("lane", 0)),
                backend=self.name, chunk=int(t["chunk"]),
                targets=int(t["targets"]), worker=str(t.get("worker", "")),
                **extra,
            )
            flight.record(
                "exec.chunk", backend=self.name, chunk=int(t["chunk"]),
                dur=t["end"] - t["start"], worker=str(t.get("worker", "")),
            )
            fork = t.get("latency")
            if fork is not None:
                merged.merge(fork)
        if merged.count:
            tel.metrics.latency("exec.task.latency", backend=self.name).merge(merged)
        self.last_latency = merged if merged.count else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """The seed path: one chunk, calling thread, no pools.

    Kept as a first-class backend so ``--backend serial`` is an explicit,
    comparable configuration rather than the absence of one — the
    differential harness uses it as the oracle.
    """

    name = "serial"
    parallel = False

    def __init__(self, workers: int | None = None, supervise=None,
                 exec_faults=None) -> None:
        # serial runs in-parent: nothing to supervise, nothing to inject
        super().__init__(workers=1, supervise=False, exec_faults=None)

    def shutdown(self) -> None:
        pass


_BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(name: str, cls: type[ExecutionBackend]) -> None:
    """Register an execution backend class under ``name``."""
    _BACKENDS[name] = cls


def get_backend(name: str, workers: int | None = None, **opts: Any) -> ExecutionBackend:
    """Instantiate a registered backend (``serial`` | ``threads`` | ``processes``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None
    return cls(workers=workers, **opts)


def BACKEND_NAMES() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


register_backend(SerialBackend.name, SerialBackend)
