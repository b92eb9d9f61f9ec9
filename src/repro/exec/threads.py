"""Thread pool backend: shared address space, shared software cache.

Worker threads traverse disjoint target-bucket chunks of one shared tree.
Every attempt rebuilds its own visitor over the parent's arrays (the exec
protocol, no copies), and the parent folds the winning attempts back in
chunk order via ``exec_apply`` — so a retried or abandoned attempt never
leaves partial writes behind.

When a :class:`~repro.cache.concurrent.SharedTreeCache` is passed, every
worker additionally warms it while traversing — concurrent
fill/park/complete against one cache tree is exactly the wait-free
contention the paper's Fig 2 protocol is designed for, and the stress tests
read the cache's waiter counters afterwards.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from .backend import ExecutionBackend, register_backend

__all__ = ["ThreadBackend", "warm_shared_cache"]


def warm_shared_cache(cache, limit: int = 32) -> tuple[int, int]:
    """Issue up to ``limit`` placeholder fills against ``cache``.

    Scans the cache tree for the first reachable placeholder and requests
    its fill with a parked resume callback, repeatedly.  Returns
    ``(callbacks_parked_here, callbacks_invoked_here)`` — under fault
    injection a fill may fail transiently, but a parked waiter is always
    either resumed by the filler or re-driven by ``fail_fill``, so the two
    numbers match at quiescence.
    """
    invoked = [0]

    def on_resume() -> None:
        invoked[0] += 1

    issued = 0
    for _ in range(limit):
        found = None
        stack = [cache.root]
        while stack and found is None:
            entry = stack.pop()
            if entry.is_placeholder:
                continue
            for slot, child in enumerate(entry.children):
                if child.is_placeholder:
                    found = (entry, slot)
                    break
            else:
                stack.extend(entry.children)
        if found is None:
            break
        issued += 1
        cache.request_fill(found[0], found[1], on_resume=on_resume)
    return issued, invoked[0]


class ThreadBackend(ExecutionBackend):
    """Run chunks on a persistent :class:`ThreadPoolExecutor`."""

    name = "threads"

    def __init__(self, workers: int | None = None, cache_warm_fills: int = 32,
                 supervise: Any = True, exec_faults=None) -> None:
        super().__init__(workers, supervise=supervise, exec_faults=exec_faults)
        self.cache_warm_fills = cache_warm_fills

    def _submitter(self, job, tree, arrays, chunks, fork, shared_cache):
        exec_faults, fills = self.exec_faults, self.cache_warm_fills

        def attempt(i: int, number: int, fork_i):
            t0 = time.perf_counter()
            if exec_faults is not None:
                exec_faults.apply_in_worker(i, number, in_process=False)
            warm = (0, 0)
            if shared_cache is not None:
                warm = warm_shared_cache(shared_cache, fills)
            return job.run(tree, arrays, chunks[i], fork_i, t0,
                           threading.get_ident(), warm=warm)

        def submit(i: int, number: int):
            return self._ensure_pool().submit(attempt, i, number, fork(i))

        return submit, lambda: None


register_backend(ThreadBackend.name, ThreadBackend)
