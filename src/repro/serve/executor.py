"""Supervised batch execution with a circuit breaker.

Batches from the micro-batcher are split into one contiguous chunk per
worker (a chunk is one frontier walk, and one walk of 64 queries costs about
half of four walks of 16) and dispatched through the PR 5
:class:`~repro.exec.supervise.ChunkSupervisor` over a thread or process
pool — so a worker death or hang degrades the batch (retry, re-dispatch,
quarantine-to-serial) instead of killing the server.  Around that sits a
:class:`CircuitBreaker`: repeated pool rebuilds or failed runs open the
breaker and the executor answers serially in-parent until a cool-down
trial succeeds.

Process workers rebuild the resident tree once in their initializer
from the picklable dataset spec; chunks then travel as plain lists of
wire-format query dicts.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable

from ..exec.supervise import ChunkSupervisor, SupervisorConfig
from .kernels import execute_queries
from .resident import ResidentState, build_resident_state

MODES = ("inline", "threads", "processes")

# -- process-pool worker side -------------------------------------------------

_WORKER_STATE: ResidentState | None = None


def _init_worker(spec: dict[str, Any]) -> None:
    global _WORKER_STATE
    _WORKER_STATE = build_resident_state(spec)


def _exec_chunk_in_worker(chunk: list[dict[str, Any]],
                          max_results: int) -> list[dict[str, Any]]:
    assert _WORKER_STATE is not None, "worker initializer did not run"
    return execute_queries(_WORKER_STATE.tree, chunk, max_results=max_results)


class CircuitBreaker:
    """closed -> open (serial fallback) -> half-open -> closed.

    ``record_failure`` counts *consecutive* degraded runs; at
    ``threshold`` the breaker opens and :meth:`allow` refuses the pool
    for ``cooldown`` seconds.  The first allowed call afterwards is the
    half-open trial: success closes the breaker, failure re-opens it.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.failures = 0
        self.opened = 0          # times the breaker tripped, cumulative
        self._opened_at = 0.0

    def allow(self) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self._opened_at >= self.cooldown:
                self.state = "half-open"
                return True
            return False
        return True  # half-open: one trial in flight

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            self.state = "open"
            self.opened += 1
            self._opened_at = self.clock()


class BatchExecutor:
    """Executes query batches against the resident tree.

    ``mode``:

    * ``inline`` — serial in the calling thread (deterministic baseline,
      what the drain/restart bit-identity tests use);
    * ``threads`` — supervised dispatch over a thread pool;
    * ``processes`` — supervised dispatch over a process pool whose
      workers hold their own copy of the tree.
    """

    def __init__(self, state: ResidentState, mode: str = "inline",
                 workers: int = 2, chunk_size: int | None = None,
                 supervisor_config: SupervisorConfig | None = None,
                 breaker: CircuitBreaker | None = None,
                 max_results: int = 256) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.state = state
        self.mode = mode
        self.workers = max(1, int(workers))
        #: explicit chunk length; None = one contiguous chunk per worker
        self.chunk_size = chunk_size
        self.max_results = max_results
        self.breaker = breaker or CircuitBreaker()
        self.supervisor = ChunkSupervisor(
            supervisor_config or SupervisorConfig(),
            backend_name=f"serve-{mode}",
            cancel_abandoned=(mode != "processes"),
        )
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None
        #: test seam: the chunk function used by thread-pool submits and
        #: the serial path (patch it to inject failures/hangs)
        self._chunk_fn: Callable[[list[dict[str, Any]]], list[dict[str, Any]]] = (
            lambda chunk: execute_queries(self.state.tree, chunk,
                                          max_results=self.max_results))
        self.batches = 0
        self.serial_batches = 0
        if mode != "inline":
            self._build_pool()

    # -- pool lifecycle ------------------------------------------------------
    def _build_pool(self) -> None:
        if self.mode == "threads":
            self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                            thread_name_prefix="serve-exec")
        elif self.mode == "processes":
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.state.worker_spec(),),
            )

    def _rebuild_pool(self) -> None:
        self.shutdown()
        self._build_pool()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- execution -----------------------------------------------------------
    def _chunks(self, queries: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
        size = self.chunk_size or -(-len(queries) // self.workers)
        return [queries[i:i + size] for i in range(0, len(queries), size)]

    def execute(self, queries: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """One result dict per query, in order.  Never raises for
        per-query problems; a degraded run falls back to serial."""
        if not queries:
            return []
        self.batches += 1
        if self.mode == "inline" or self._pool is None or not self.breaker.allow():
            self.serial_batches += 1
            return self._chunk_fn(queries)

        chunks = self._chunks(queries)

        def submit(chunk_index: int, attempt: int):
            chunk = chunks[chunk_index]
            if self.mode == "processes":
                return self._pool.submit(_exec_chunk_in_worker, chunk,
                                         self.max_results)
            return self._pool.submit(self._chunk_fn, chunk)

        try:
            results, stats = self.supervisor.run(
                len(chunks), submit,
                serial_exec=lambda i: self._chunk_fn(chunks[i]),
                rebuild=self._rebuild_pool,
            )
        except Exception:
            # supervision itself blew up (pool unrecoverable mid-run):
            # count it against the breaker and answer serially
            self.breaker.record_failure()
            self.serial_batches += 1
            return self._chunk_fn(queries)

        if stats.pool_rebuilds or stats.quarantined:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        return [doc for chunk in results for doc in chunk]

    def snapshot(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "breaker": self.breaker.state,
            "breaker_opened": self.breaker.opened,
            "batches": self.batches,
            "serial_batches": self.serial_batches,
            "supervision": {
                "retries": self.supervisor.total_stats.retries,
                "worker_deaths": self.supervisor.total_stats.worker_deaths,
                "pool_rebuilds": self.supervisor.total_stats.pool_rebuilds,
                "quarantined": self.supervisor.total_stats.quarantined,
            },
        }
