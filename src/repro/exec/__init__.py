"""Shared-memory parallel execution backends.

The paper's headline results come from *actually running* traversals in
parallel: Partitions spread load across processing elements while the
software cache shares tree data.  This package supplies that real parallel
path for the Python reproduction — the first layer where wall-clock, not
simulated, time improves:

* :class:`SerialBackend` — the seed behaviour, kept as the oracle every
  other backend must match bit-for-bit;
* :class:`ThreadBackend` — a shared-address-space pool.  Worker threads
  traverse disjoint target-bucket chunks against one shared visitor (NumPy
  releases the GIL inside the large kernels) and contend on one
  :class:`~repro.cache.concurrent.SharedTreeCache`, exercising its
  wait-free fill/park/complete protocol under real concurrency;
* :class:`ProcessBackend` — worker processes attach the particle/tree
  structure-of-arrays via ``multiprocessing.shared_memory`` (zero-copy
  views) and return per-chunk accumulators that the parent reduces in
  deterministic partition order.

Every backend produces results **bit-identical** to serial regardless of
worker count: target buckets are partitioned exactly (reusing the
Partitions decomposition), per-particle accumulation order inside a chunk
equals the serial order, and reductions always run in chunk order, never
completion order.  ``tests/harness/differential.py`` enforces this for
every (engine × backend × worker-count) combination.
"""

from .backend import (
    ExecutionBackend,
    SerialBackend,
    get_backend,
    register_backend,
)
from .chunking import chunk_targets
from .shm import ShmArena, attach_arena, sweep_orphan_segments
from .supervise import ChunkSupervisor, SupervisionStats, SupervisorConfig
from .threads import ThreadBackend
from .processes import ProcessBackend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "register_backend",
    "chunk_targets",
    "ShmArena",
    "attach_arena",
    "sweep_orphan_segments",
    "ChunkSupervisor",
    "SupervisionStats",
    "SupervisorConfig",
]
