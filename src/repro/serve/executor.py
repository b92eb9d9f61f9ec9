"""Supervised batch execution with a circuit breaker.

Batches from the micro-batcher are split into one contiguous chunk per
worker (a chunk is one frontier walk, and one walk of 64 queries costs about
half of four walks of 16) and dispatched through the exec backends' own
pool and supervised loop (:class:`~repro.exec.backend.ExecutionBackend`,
:class:`~repro.exec.supervise.ChunkSupervisor`) — so a worker death or
hang degrades the batch (retry, re-dispatch, quarantine-to-serial, a
SIGKILLed hung worker) instead of killing the server.  Around that sits a
:class:`CircuitBreaker`: repeated pool rebuilds or failed runs open the
breaker and the executor answers serially in-parent until a cool-down
trial succeeds.

Process workers share the resident tree: it is packed into one shm arena
per server, and each worker attaches it once through the exec backend's
per-segment tree cache; chunks then travel as plain lists of wire-format
query dicts.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..exec.backend import get_backend
from ..exec.processes import _attach_tree
from ..exec.supervise import ChunkSupervisor, SupervisorConfig
from .kernels import execute_queries
from .resident import ResidentState

MODES = ("inline", "threads", "processes")


def _exec_chunk_in_worker(handle, meta, chunk: list[dict[str, Any]],
                          max_results: int) -> list[dict[str, Any]]:
    tree = _attach_tree(handle, meta)[0]
    return execute_queries(tree, chunk, max_results=max_results)


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
    * ``threads`` — supervised dispatch over the thread backend's pool;
    * ``processes`` — supervised dispatch over the process backend's pool,
      whose workers attach the resident tree from one shm arena.
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
        #: the pool owner; None when inline or after shutdown
        self.backend = None
        self._arena = self._meta = None
        if mode != "inline":
            self.backend = get_backend(mode, workers=workers)
            self.backend.thread_name_prefix = "serve-exec"
        self.workers = self.backend.workers if self.backend else 1
        #: explicit chunk length; None = one contiguous chunk per worker
        self.chunk_size = chunk_size
        self.max_results = max_results
        self.breaker = breaker or CircuitBreaker()
        self.supervisor = ChunkSupervisor(
            supervisor_config or SupervisorConfig(),
            backend_name=f"serve-{mode}",
            cancel_abandoned=self.backend is None or self.backend.supervisor_cancels,
        )
        #: test seam: the chunk function used by thread-pool submits and
        #: the serial path (patch it to inject failures/hangs)
        self._chunk_fn: Callable[[list[dict[str, Any]]], list[dict[str, Any]]] = (
            lambda chunk: execute_queries(self.state.tree, chunk,
                                          max_results=self.max_results))
        self.batches = 0
        self.serial_batches = 0
        if mode == "processes":
            self._arena, self._meta = self.backend._pack_arena(state.tree, {})

    def shutdown(self) -> None:
        """Stop the pool and drop the arena; later batches run serially."""
        if self.backend is not None:
            self.backend.shutdown()
            self.backend = None
        if self._arena is not None:
            self._arena.dispose()
            self._arena = None

    def _chunks(self, queries: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
        size = self.chunk_size or -(-len(queries) // self.workers)
        return [queries[i:i + size] for i in range(0, len(queries), size)]

    def execute(self, queries: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """One result dict per query, in order.  Never raises for
        per-query problems; a degraded run falls back to serial."""
        if not queries:
            return []
        self.batches += 1
        backend = self.backend
        if backend is None or not self.breaker.allow():
            self.serial_batches += 1
            return self._chunk_fn(queries)

        chunks = self._chunks(queries)

        def submit(chunk_index: int, attempt: int):
            chunk = chunks[chunk_index]
            if self._arena is not None:
                return backend._ensure_pool().submit(
                    _exec_chunk_in_worker, self._arena.handle, self._meta,
                    chunk, self.max_results)
            return backend._ensure_pool().submit(self._chunk_fn, chunk)

        try:
            results, stats = backend._supervise(
                self.supervisor, len(chunks), submit,
                lambda i: self._chunk_fn(chunks[i]),
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
