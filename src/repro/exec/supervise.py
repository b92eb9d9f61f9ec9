"""Supervised chunk dispatch: deadlines, retry, quarantine, pool rebuild.

The exec backends' original dispatch loop — submit every chunk, then block
on ``f.result()`` in chunk order — inherits none of the worker supervision
the paper gets for free from Charm++: a worker killed by the OOM killer
raises ``BrokenProcessPool`` out of the whole iteration, leaves the pool
permanently broken, and a hung worker blocks forever.  The
:class:`ChunkSupervisor` replaces that loop with an event-driven one,
following the re-dispatch-constrained-work model of Dekate et al.:

* **wait-with-timeout dispatch** — the parent waits on *all* in-flight
  futures at once with a timeout derived from the per-chunk deadline, so
  it notices hung or dead workers instead of blocking on one future;
* **per-chunk deadlines** — explicit (``--chunk-deadline``) or seeded from
  the observed ``exec.task.latency`` distribution (a multiple of p99 once
  enough chunks have completed); an expired attempt is abandoned and the
  chunk re-dispatched (``exec.redispatches``);
* **bounded retry with exponential backoff** — a failed attempt is retried
  up to ``max_chunk_retries`` times (``exec.retries``), with a short
  backoff so a transiently sick pool gets air;
* **automatic pool rebuild** — a broken executor (worker SIGKILLed, OOM)
  fails every in-flight future; the supervisor drains them, asks the
  backend to rebuild the pool, and re-dispatches every unfinished chunk
  (``exec.worker_deaths`` / ``exec.pool_rebuilds``);
* **poison-chunk quarantine** — a chunk that exhausts its attempts is
  re-executed *serially in-parent*, where no injection and no pool can
  hurt it (``exec.quarantined``).  The run degrades; it does not die.

The determinism contract survives supervision because workers never mutate
shared state: every attempt computes the same pure per-chunk outputs from
read-only inputs, the parent keeps exactly one result per chunk (whichever
attempt finished first), and ``exec_apply`` still runs exactly once per
chunk, in chunk order.  A fault-free supervised run takes the identical
code path per chunk as an unsupervised one — same visitor rebuilds, same
reduction order — so its results are bit-identical to PR 5 behaviour.
"""

from __future__ import annotations

import concurrent.futures as cf
import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..faults.execfaults import WorkerDeath
from ..obs import Log2Histogram, get_telemetry

__all__ = ["SupervisorConfig", "SupervisionStats", "ChunkSupervisor"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for the supervised dispatch loop (frozen, reusable)."""

    #: master switch: False restores the PR 5 block-on-result dispatch
    enabled: bool = True
    #: explicit per-chunk deadline in seconds (None = seed from latency)
    chunk_deadline: float | None = None
    #: deadline = deadline_factor x observed p99, once seeded
    deadline_factor: float = 8.0
    #: never let a seeded deadline drop below this (seconds)
    min_deadline: float = 0.05
    #: chunk completions required before the latency-seeded deadline arms
    seed_observations: int = 8
    #: re-dispatch budget per chunk before quarantine
    max_chunk_retries: int = 3
    #: first-retry backoff in seconds; attempt k sleeps base * factor**(k-1)
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    #: hard cap on any single backoff sleep (seconds)
    backoff_max: float = 1.0

    def __post_init__(self) -> None:
        if self.chunk_deadline is not None and self.chunk_deadline <= 0:
            raise ValueError(
                f"chunk_deadline must be > 0, got {self.chunk_deadline}"
            )
        if self.max_chunk_retries < 0:
            raise ValueError(
                f"max_chunk_retries must be >= 0, got {self.max_chunk_retries}"
            )
        if self.deadline_factor <= 0 or self.min_deadline <= 0:
            raise ValueError("deadline_factor and min_deadline must be > 0")

@dataclass
class SupervisionStats:
    """What the supervisor had to do during one (or more) runs."""

    #: failed attempts re-dispatched after an exception
    retries: int = 0
    #: attempts abandoned past their deadline and re-dispatched
    redispatches: int = 0
    #: worker deaths observed (broken pool, SIGKILL, WorkerDeath)
    worker_deaths: int = 0
    #: chunks that exhausted retries and ran serially in-parent
    quarantined: int = 0
    #: executor pools torn down and rebuilt after a death
    pool_rebuilds: int = 0
    #: attempts that overran their deadline (== redispatches unless the
    #: straggler finished in the same wait round it expired)
    deadline_misses: int = 0

    @property
    def degraded(self) -> bool:
        """True when any recovery action fired — the run completed, but
        not on the clean path."""
        return any(
            (self.retries, self.redispatches, self.worker_deaths,
             self.quarantined, self.pool_rebuilds)
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "redispatches": self.redispatches,
            "worker_deaths": self.worker_deaths,
            "quarantined": self.quarantined,
            "pool_rebuilds": self.pool_rebuilds,
            "deadline_misses": self.deadline_misses,
        }

    def merge(self, other: "SupervisionStats") -> None:
        self.retries += other.retries
        self.redispatches += other.redispatches
        self.worker_deaths += other.worker_deaths
        self.quarantined += other.quarantined
        self.pool_rebuilds += other.pool_rebuilds
        self.deadline_misses += other.deadline_misses


@dataclass
class _Attempt:
    chunk: int
    number: int
    submitted: float


@dataclass
class _RunState:
    results: list[Any]
    filled: list[bool]
    attempts: list[int]
    pending: dict[Future, _Attempt] = field(default_factory=dict)


class ChunkSupervisor:
    """Event-driven dispatch of chunk attempts over an executor pool.

    The supervisor is backend-agnostic: it drives three callables the
    backend provides —

    ``submit(chunk, attempt) -> Future``
        dispatch one attempt to the pool (a fresh visitor/fork per
        attempt, so a failed attempt leaves no partial state);
    ``serial_exec(chunk) -> result``
        the quarantine path: compute the chunk in-parent, no pool, no
        injection;
    ``rebuild() -> None`` (optional)
        tear down and replace a broken executor pool.

    Latency observations persist across runs on the same supervisor, so
    the seeded deadline tightens as the workload's chunk-time distribution
    fills in.
    """

    def __init__(self, config: SupervisorConfig, backend_name: str,
                 cancel_abandoned: bool = True) -> None:
        self.config = config
        self.backend_name = backend_name
        #: whether abandoned attempts get Future.cancel().  Process pools
        #: must not: CPython's executor-manager thread calls
        #: ``set_exception`` on every pending work item when the pool
        #: breaks, and a future we already cancelled makes that raise
        #: InvalidStateError inside the manager thread (cpython#94777
        #: family).  An uncancelled stale attempt just runs to completion
        #: and its result is discarded.
        self.cancel_abandoned = cancel_abandoned
        #: cumulative across runs; :meth:`run` also returns per-run stats
        self.total_stats = SupervisionStats()
        #: observed successful chunk durations (parent clock), deadline seed
        self._observed = Log2Histogram()

    # -- deadline ------------------------------------------------------------
    def effective_deadline(self) -> float | None:
        """Current per-chunk deadline in seconds (None = wait forever)."""
        cfg = self.config
        if cfg.chunk_deadline is not None:
            return cfg.chunk_deadline
        if self._observed.count < cfg.seed_observations:
            return None
        seeded = cfg.deadline_factor * self._observed.quantile(0.99)
        return max(seeded, cfg.min_deadline)

    def observe(self, duration: float) -> None:
        """Feed one successful chunk duration into the deadline seed."""
        if duration > 0:
            self._observed.observe(duration)

    # -- main loop -----------------------------------------------------------
    def run(
        self,
        n_chunks: int,
        submit: Callable[[int, int], Future],
        serial_exec: Callable[[int], Any],
        rebuild: Callable[[], None] | None = None,
    ) -> tuple[list[Any], SupervisionStats]:
        """Dispatch ``n_chunks`` chunks; return one result per chunk (in
        chunk order) and the per-run :class:`SupervisionStats`."""
        stats = SupervisionStats()
        state = _RunState(
            results=[None] * n_chunks,
            filled=[False] * n_chunks,
            attempts=[0] * n_chunks,
        )
        for chunk in range(n_chunks):
            self._dispatch(state, stats, chunk, submit, serial_exec)

        while not all(state.filled):
            if not state.pending:
                # every unfinished chunk lost its in-flight attempts (e.g.
                # a pool break drained them and retries were exhausted);
                # quarantine is the floor, so this terminates.
                for chunk in range(n_chunks):
                    if not state.filled[chunk]:
                        self._quarantine(state, stats, chunk, serial_exec)
                break
            deadline = self.effective_deadline()
            timeout = self._wait_timeout(state, deadline)
            done, _ = cf.wait(
                set(state.pending), timeout=timeout,
                return_when=cf.FIRST_COMPLETED,
            )
            pool_broke = self._drain(
                state, stats, done, submit, serial_exec
            )
            if pool_broke:
                self._handle_pool_break(
                    state, stats, submit, serial_exec, rebuild
                )
            if deadline is not None:
                self._expire(state, stats, deadline, submit, serial_exec)

        self.total_stats.merge(stats)
        return state.results, stats

    # -- internals -----------------------------------------------------------
    def _wait_timeout(self, state: _RunState, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        now = time.perf_counter()
        remaining = min(
            att.submitted + deadline - now for att in state.pending.values()
        )
        return max(remaining, 0.0)

    def _dispatch(
        self,
        state: _RunState,
        stats: SupervisionStats,
        chunk: int,
        submit: Callable[[int, int], Future],
        serial_exec: Callable[[int], Any],
    ) -> None:
        """Launch the next attempt for ``chunk``, or quarantine it when the
        attempt budget is spent."""
        cfg = self.config
        number = state.attempts[chunk]
        if number > cfg.max_chunk_retries:
            self._quarantine(state, stats, chunk, serial_exec)
            return
        state.attempts[chunk] += 1
        if number > 0:
            delay = min(
                cfg.backoff_base * cfg.backoff_factor ** (number - 1),
                cfg.backoff_max,
            )
            if delay > 0:
                time.sleep(delay)
        try:
            fut = submit(chunk, number)
        except BrokenExecutor:
            # pool died between drain and resubmit; retry accounting is
            # handled by the caller's next loop round via the empty-pending
            # quarantine floor, but give the chunk its attempt back first
            state.attempts[chunk] -= 1
            self._quarantine(state, stats, chunk, serial_exec)
            return
        state.pending[fut] = _Attempt(chunk, number, time.perf_counter())

    def _quarantine(
        self,
        state: _RunState,
        stats: SupervisionStats,
        chunk: int,
        serial_exec: Callable[[int], Any],
    ) -> None:
        """Re-execute a poison chunk serially in-parent — exactly once."""
        if state.filled[chunk]:
            return
        state.results[chunk] = serial_exec(chunk)
        state.filled[chunk] = True
        stats.quarantined += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "exec.quarantined", backend=self.backend_name
            ).inc()
            tel.flight.record(
                "exec.quarantine", backend=self.backend_name, chunk=chunk,
                attempts=state.attempts[chunk],
            )

    def _drain(
        self,
        state: _RunState,
        stats: SupervisionStats,
        done: set[Future],
        submit: Callable[[int, int], Future],
        serial_exec: Callable[[int], Any],
    ) -> bool:
        """Collect finished futures; returns True when the pool broke."""
        tel = get_telemetry()
        pool_broke = False
        for fut in done:
            att = state.pending.pop(fut)
            try:
                result = fut.result()
            except BrokenExecutor:
                pool_broke = True
                continue  # every sibling future is dead too; handled after
            except WorkerDeath as exc:
                stats.worker_deaths += 1
                if tel.enabled:
                    tel.metrics.counter(
                        "exec.worker_deaths", backend=self.backend_name
                    ).inc()
                    tel.flight.record(
                        "exec.worker_death", backend=self.backend_name,
                        chunk=att.chunk, attempt=att.number, error=str(exc),
                    )
                self._retry(state, stats, att, submit, serial_exec)
                continue
            except Exception as exc:
                stats.retries += 1
                if tel.enabled:
                    tel.metrics.counter(
                        "exec.retries", backend=self.backend_name
                    ).inc()
                    tel.flight.record(
                        "exec.retry", backend=self.backend_name,
                        chunk=att.chunk, attempt=att.number,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                self._retry(state, stats, att, submit, serial_exec)
                continue
            if not state.filled[att.chunk]:
                state.results[att.chunk] = result
                state.filled[att.chunk] = True
                self.observe(time.perf_counter() - att.submitted)
            # else: a superseded straggler finished after its replacement —
            # identical result by determinism, safe to discard
        return pool_broke

    def _retry(
        self,
        state: _RunState,
        stats: SupervisionStats,
        att: _Attempt,
        submit: Callable[[int, int], Future],
        serial_exec: Callable[[int], Any],
    ) -> None:
        if state.filled[att.chunk]:
            return
        # another attempt for this chunk may still be in flight (after a
        # deadline redispatch); only dispatch anew when none is
        if any(a.chunk == att.chunk for a in state.pending.values()):
            return
        self._dispatch(state, stats, att.chunk, submit, serial_exec)

    def _handle_pool_break(
        self,
        state: _RunState,
        stats: SupervisionStats,
        submit: Callable[[int, int], Future],
        serial_exec: Callable[[int], Any],
        rebuild: Callable[[], None] | None,
    ) -> None:
        """A worker died hard enough to break the executor: drain every
        doomed future, rebuild the pool, re-dispatch unfinished chunks."""
        stats.worker_deaths += 1
        stats.pool_rebuilds += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "exec.worker_deaths", backend=self.backend_name
            ).inc()
            tel.metrics.counter(
                "exec.pool_rebuilds", backend=self.backend_name
            ).inc()
            tel.flight.record(
                "exec.worker_death", backend=self.backend_name,
                error="broken executor",
            )
            tel.flight.record(
                "exec.pool_rebuild", backend=self.backend_name,
            )
        doomed = list(state.pending)
        state.pending.clear()
        if self.cancel_abandoned:
            for fut in doomed:
                # results on a broken pool are lost even if marked done
                fut.cancel()
        if rebuild is not None:
            rebuild()
        for chunk in range(len(state.filled)):
            if not state.filled[chunk]:
                self._dispatch(state, stats, chunk, submit, serial_exec)

    def _expire(
        self,
        state: _RunState,
        stats: SupervisionStats,
        deadline: float,
        submit: Callable[[int, int], Future],
        serial_exec: Callable[[int], Any],
    ) -> None:
        """Abandon attempts past their deadline and re-dispatch their
        chunks.  The abandoned future keeps running (a thread cannot be
        cancelled mid-flight); if it finishes first its result is simply
        never used — both attempts compute identical outputs."""
        now = time.perf_counter()
        tel = get_telemetry()
        for fut, att in list(state.pending.items()):
            if state.filled[att.chunk]:
                # stale attempt for an already-finished chunk: stop
                # tracking it so it cannot trigger bogus expiries
                state.pending.pop(fut)
                continue
            if now - att.submitted < deadline:
                continue
            state.pending.pop(fut)
            if self.cancel_abandoned:
                # a never-started attempt is simply dequeued; a running one
                # keeps going and its late result is discarded as stale
                fut.cancel()
            stats.deadline_misses += 1
            stats.redispatches += 1
            if tel.enabled:
                tel.metrics.counter(
                    "exec.redispatches", backend=self.backend_name
                ).inc()
                tel.flight.record(
                    "exec.redispatch", backend=self.backend_name,
                    chunk=att.chunk, attempt=att.number,
                    deadline=deadline,
                )
            self._dispatch(state, stats, att.chunk, submit, serial_exec)
