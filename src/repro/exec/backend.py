"""Execution backend interface, registry and the one pool dispatch loop.

A backend runs one registered :class:`~repro.core.traverser.Traverser` over
a set of target buckets, possibly concurrently, and must satisfy the
**determinism contract**: for any worker count the visitor ends up in a
state bit-identical to a serial run over the same targets, and the merged
:class:`~repro.core.traverser.TraversalStats` interaction counts are equal.
Backends achieve this by chunking targets exactly (see
:func:`~repro.exec.chunking.chunk_targets`) and reducing per-chunk results
in chunk order, never completion order.

Visitors opt into the pool backends through the parallel-execution
protocol on :class:`~repro.core.visitor.Visitor` (``exec_config`` /
``exec_arrays`` / ``exec_rebuild`` / ``exec_collect`` / ``exec_apply``).
Every chunk attempt rebuilds its own visitor, so a visitor without the
protocol is executed serially — correctness is never traded for
concurrency.

Everything a pool backend shares lives here: the pool lifecycle (build on
first use, SIGKILL-on-rebuild, hang-aware shutdown, the shm arena
generation), the supervised dispatch loop (every chunk runs as attempts
under a :class:`~repro.exec.supervise.ChunkSupervisor`) and the reduction
tail (task rows, worker lanes, clock offsets, attach and warm counters).
``threads`` and ``processes`` only say how one attempt is submitted; the
serve executor (:mod:`repro.serve.executor`) runs its batches on the same
pools.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.traverser import Recorder, TraversalStats, Traverser, get_traverser
from ..obs import Log2Histogram, get_telemetry
from ..trees import Tree
from .supervise import ChunkSupervisor, SupervisorConfig

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "get_backend",
    "register_backend",
]


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


class ChunkResult(NamedTuple):
    """One finished chunk attempt, as shipped back to the parent."""

    stats: TraversalStats
    outputs: dict[str, np.ndarray]
    fork: Recorder | None
    t0: float
    t1: float
    #: worker identity on its own side (pid or thread ident): the lane key
    worker: int
    #: per-segment worker tree cache outcome; None when nothing was attached
    cache_hit: bool | None = None
    #: shared-cache warm fills (issued, invoked) made by this attempt
    warm: tuple[int, int] = (0, 0)
    latency: Log2Histogram | None = None


@dataclass(frozen=True)
class ChunkJob:
    """What every attempt of one run shares besides the tree and arrays;
    picklable, so process workers receive it by value."""

    engine: str
    visitor_cls: type
    config: dict[str, Any]
    record_latency: bool

    def run(self, tree: Tree, arrays: dict[str, np.ndarray], chunk: np.ndarray,
            fork: Recorder | None, t0: float, worker: int,
            cache_hit: bool | None = None, warm: tuple[int, int] = (0, 0)) -> ChunkResult:
        """Traverse ``chunk`` on a visitor rebuilt over ``arrays``."""
        visitor = self.visitor_cls.exec_rebuild(tree, arrays, self.config)
        # _traverse, not traverse: the Tracer's span stack is not
        # thread-safe, so attempts run bare and the parent records completed
        # spans afterwards.
        stats = get_traverser(self.engine)._traverse(tree, visitor, chunk, fork)
        outputs = visitor.exec_collect(tree, chunk)
        t1 = time.perf_counter()
        lat = None
        if self.record_latency:
            lat = Log2Histogram()
            lat.observe(t1 - t0)
        return ChunkResult(stats, outputs, fork, t0, t1, worker, cache_hit, warm, lat)


class ExecutionBackend:
    """Base class: runs traversals over chunked targets.

    Pool backends implement :meth:`_submitter` (and set :attr:`start_method`
    for a process pool); the base class handles target resolution,
    recorder forking, serial fallback, the pool, supervised dispatch, the
    chunk-ordered reduction and telemetry (``exec.*`` metrics plus one
    completed span per chunk task).
    """

    name: str = "abstract"
    #: whether this backend ever runs more than one chunk concurrently
    parallel: bool = True
    #: whether the supervisor may Future.cancel() abandoned attempts
    #: (process pools must not — see ChunkSupervisor.cancel_abandoned)
    supervisor_cancels: bool = True
    #: None: a thread pool; otherwise the process pool's start method
    start_method: str | None = None
    thread_name_prefix: str = "repro-exec"
    #: how a task row names its worker (``lane``: the run's lane number,
    #: ``worker``: the attempt's :attr:`ChunkResult.worker`)
    worker_label: str = "thread-{lane}"

    def __init__(self, workers: int | None = None, supervise: Any = True,
                 exec_faults=None) -> None:
        self.workers = int(workers) if workers else _default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if supervise is True:
            supervise = SupervisorConfig()
        elif not isinstance(supervise, SupervisorConfig):
            raise ValueError(
                f"supervise must be True or a SupervisorConfig, got {supervise!r}"
            )
        #: deadlines, retry budget and backoff of the dispatch loop
        self.supervise_config: SupervisorConfig | None = supervise
        #: persists across runs, so the latency-seeded deadline tightens as
        #: chunk durations accumulate
        self._supervisor = ChunkSupervisor(
            supervise, self.name, cancel_abandoned=self.supervisor_cancels
        )
        #: real-execution fault plan injected into workers (tests/chaos);
        #: a plan that arms nothing is not shipped with every attempt
        self.exec_faults = exec_faults if exec_faults and exec_faults.any_faults else None
        self._pool: Executor | None = None
        self._pool_lock = threading.Lock()
        #: bumped on every pool rebuild; tagged into arena segment names so
        #: the orphan sweeper can tell live generations from dead ones
        self._generation = 0
        #: a deadline fired: a worker may be wedged mid-chunk, so shutdown
        #: must not join it
        self._hang_suspected = False
        #: how the last ``run`` executed ("parallel" | "degraded" |
        #: "serial-fallback" | "serial"); tests and telemetry read this
        self.last_mode = "serial"
        #: supervision outcome of the last parallel run (a
        #: :meth:`~repro.exec.supervise.SupervisionStats.to_dict`), or None
        #: when the last run did not reach the pool
        self.last_supervision: dict[str, int] | None = None
        #: per-chunk task dicts from the last parallel run (worker lanes for
        #: the ``repro top`` dashboard)
        self.last_tasks: list[dict[str, Any]] = []
        #: merged worker-side latency distribution from the last parallel run
        self.last_latency: Log2Histogram | None = None
        #: worker tree cache stats from the last run that attached an arena
        self.last_cache_stats: dict[str, Any] | None = None
        #: (issued, invoked) totals from the last run's shared-cache warming
        self.last_cache_warm = (0, 0)
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
        self.last_cache_stats = None
        if not self.parallel or self.workers <= 1 or len(chunks) <= 1:
            return self._serial(engine, tree, visitor, targets, recorder, mode="serial")
        forks = None
        if recorder is not None:
            forks = [recorder.fork() for _ in chunks]
            if any(f is None for f in forks):
                return self._serial(engine, tree, visitor, targets, recorder,
                                    mode="serial-fallback")
        if getattr(visitor, "exec_config", lambda: None)() is None:
            return self._serial(engine, tree, visitor, targets, recorder,
                                mode="serial-fallback")
        # Trace context: remember which pipeline-phase span owns this run so
        # the worker task spans recorded after the fact can name their parent.
        tel = get_telemetry()
        self._phase_span = tel.tracer.current_span_id() if tel.enabled else None
        stats = self._run_chunks(engine, tree, visitor, chunks, forks, shared_cache)
        if forks is not None:
            for fork in forks:
                recorder.absorb(fork)
        self._record_run(len(chunks), len(targets))
        return stats

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- pool lifecycle: the one place pools are built, rebuilt and killed ---
    def _ensure_pool(self) -> Executor:
        """The backend's pool, built on first use and after a rebuild."""
        with self._pool_lock:
            if self._pool is None:
                if self.start_method is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix=self.thread_name_prefix,
                    )
                else:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context(self.start_method),
                    )
            return self._pool

    def _rebuild_pool(self) -> None:
        """Replace a broken or wedged pool: SIGKILL its live worker
        processes (a hung one would otherwise block executor shutdown and
        interpreter exit), drop the executor without waiting, and bump the
        arena generation so segments created after the rebuild are
        distinguishable from the dead generation's.  A hung thread cannot
        be killed; it is abandoned and exits when its sleep ends."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._generation += 1
        if pool is None:
            return
        for pid, proc in list((getattr(pool, "_processes", None) or {}).items()):
            if proc.is_alive():
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Release the pool (idempotent).  After a deadline miss a worker
        may be wedged mid-chunk, so the pool is torn down the way a rebuild
        does instead of being joined."""
        if self._hang_suspected:
            self._rebuild_pool()
            self._hang_suspected = False
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- supervised dispatch: the one loop ----------------------------------
    def _supervise(self, supervisor: ChunkSupervisor, n_chunks: int,
                   submit: Callable, serial_exec: Callable) -> tuple[list[Any], Any]:
        """Run ``n_chunks`` attempts through ``supervisor`` on this pool:
        a broken pool is rebuilt here, and a deadline miss marks the pool
        for a killing shutdown."""
        results, stats = supervisor.run(
            n_chunks, submit, serial_exec, rebuild=self._rebuild_pool
        )
        if stats.deadline_misses:
            self._hang_suspected = True
        return results, stats

    def _submitter(self, job: ChunkJob, tree: Tree, arrays: dict[str, np.ndarray],
                   chunks: list[np.ndarray], fork: Callable[[int], Recorder | None],
                   shared_cache) -> tuple[Callable[[int, int], Any], Callable[[], None]]:
        """``(submit(chunk, attempt) -> Future, release())`` for one run."""
        raise NotImplementedError

    def _run_chunks(
        self,
        engine: Traverser,
        tree: Tree,
        visitor: Any,
        chunks: list[np.ndarray],
        forks: list[Recorder] | None,
        shared_cache=None,
    ) -> TraversalStats:
        """Supervised dispatch: every attempt rebuilds its own visitor and
        recorder fork, so a failed or abandoned attempt leaves no partial
        state in the parent, and the winning attempt's outputs are applied
        exactly once, in chunk order."""
        job = ChunkJob(engine.name, type(visitor), visitor.exec_config(),
                       get_telemetry().enabled)
        arrays = visitor.exec_arrays()

        def fork(i: int) -> Recorder | None:
            return forks[i].fork() if forks is not None else None

        def serial_exec(i: int) -> ChunkResult:
            # quarantine: in-parent over the parent's own arrays — no pool,
            # no shm attach, no injection, cannot fail the way workers do
            return job.run(tree, arrays, chunks[i], fork(i), time.perf_counter(),
                           self._parent_worker())

        start = time.perf_counter()
        submit, release = self._submitter(job, tree, arrays, chunks, fork, shared_cache)
        try:
            results, sup_stats = self._supervise(
                self._supervisor, len(chunks), submit, serial_exec
            )
        finally:
            end = time.perf_counter()
            release()
        self.last_supervision = sup_stats.to_dict()
        # "degraded" = the run completed but supervision had to intervene
        # (retry / redispatch / worker death / quarantine); surfaced through
        # IterationReport and `repro top` so operators see it.
        self.last_mode = "degraded" if sup_stats.degraded else "parallel"
        return self._reduce(tree, visitor, chunks, forks, results, start, end)

    def _parent_worker(self) -> int:
        return threading.get_ident()

    def _reduce(self, tree: Tree, visitor: Any, chunks: list[np.ndarray],
                forks: list[Recorder] | None, results: list[ChunkResult],
                start: float, end: float) -> TraversalStats:
        """Apply the winning attempts in chunk order (never completion
        order) and publish the run's task rows, worker lanes, clock offsets
        and attach/warm counters."""
        total = TraversalStats()
        tasks = []
        lanes: dict[int, int] = {}
        hits = misses = issued = invoked = 0
        for i, r in enumerate(results):
            total.merge(r.stats)
            visitor.exec_apply(tree, chunks[i], r.outputs)
            if forks is not None:
                forks[i] = r.fork  # the winning attempt's fork, absorbed by run()
            lane = lanes.setdefault(r.worker, len(lanes))
            if r.cache_hit is not None:  # None: nothing attached (threads, quarantine)
                hits += r.cache_hit
                misses += not r.cache_hit
            issued += r.warm[0]
            invoked += r.warm[1]
            # Workers time on their own clock.  Threads, and processes under
            # the fork start method, share CLOCK_MONOTONIC, so the interval
            # normally falls inside the parent's [start, end] window and the
            # offset is zero; otherwise the interval is centred into the
            # window and the applied offset is reported with the span.
            offset = 0.0
            if not (start <= r.t0 and r.t1 <= end):
                offset = (start + end) / 2.0 - (r.t0 + r.t1) / 2.0
            tasks.append({
                "chunk": i, "targets": len(chunks[i]),
                "start": r.t0 + offset, "end": r.t1 + offset, "lane": lane,
                "worker": self.worker_label.format(lane=lane, worker=r.worker),
                "clock_offset": offset, "latency": r.latency,
            })
        self.last_cache_warm = (issued, invoked)
        if hits + misses:
            self._record_cache(hits, misses)
        self._record_tasks(tasks)
        return total

    # -- shared helpers -----------------------------------------------------
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

    def _record_cache(self, hits: int, misses: int) -> None:
        """Aggregate the workers' per-segment tree cache attach outcomes
        into ``exec.cache.*`` metrics and ``last_cache_stats``."""
        total = hits + misses
        self.last_cache_stats = {
            "attach_hits": hits,
            "attach_misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.metrics.counter("exec.cache.attach_hits", backend=self.name).inc(hits)
        tel.metrics.counter("exec.cache.attach_misses", backend=self.name).inc(misses)
        tel.metrics.gauge("exec.cache.hit_rate", backend=self.name).set(
            self.last_cache_stats["hit_rate"]
        )

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
            extra: dict[str, Any] = {"clock_offset": t["clock_offset"]}
            if phase_span is not None:
                extra["phase_span"] = phase_span
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


class SerialBackend(ExecutionBackend):
    """The seed path: one chunk, calling thread, no pools.

    Kept as a first-class backend so ``--backend serial`` is an explicit,
    comparable configuration rather than the absence of one — the
    differential harness uses it as the oracle.
    """

    name = "serial"
    parallel = False

    def __init__(self, workers: int | None = None, supervise: Any = True,
                 exec_faults=None) -> None:
        super().__init__(workers=1, supervise=supervise)
        # serial runs in-parent: nothing to supervise, nothing to inject
        self.supervise_config = None


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


register_backend(SerialBackend.name, SerialBackend)
