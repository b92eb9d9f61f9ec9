"""Trace-driven CPU cache-hierarchy simulator (paper Table II substrate).

The paper profiles hardware PMU counters (L1D/L2/L3 accesses and miss
rates) to show *why* the transposed traversal is faster: it touches tree
data far fewer times at the cost of somewhat worse locality per access.  We
have no PMU, so we rebuild the mechanism:

1. run the *real* traversal of each style with a recording visitor wrapper
   (:class:`~repro.memsim.trace.MemoryTraceRecorder`) — the engine's actual
   evaluation order becomes the access order;
2. map every touched object (node summaries, particle coordinates, masses,
   accumulators) to cache-line addresses via an explicit data layout
   (:class:`~repro.memsim.trace.DataLayout`);
3. replay the line stream through set-associative LRU L1D/L2/L3 models with
   the Skylake-SKX geometry of the paper's Stampede2 node (the
   :class:`~repro.memsim.hierarchy.CacheHierarchy` defaults).

Absolute access counts are line-granular (the paper's PMU counts are
instruction-granular and ~10³× larger); the reproduced quantities are the
*ratios* between the two traversal styles and the miss-rate ordering.
"""

from .cache import CacheLevel, CacheStats
from .hierarchy import CacheHierarchy, HierarchyStats
from .trace import DataLayout, MemoryTraceRecorder, replay_trace
from .profile import CacheProfile, profile_traversal_style

__all__ = [
    "CacheLevel",
    "CacheStats",
    "CacheHierarchy",
    "HierarchyStats",
    "DataLayout",
    "MemoryTraceRecorder",
    "replay_trace",
    "CacheProfile",
    "profile_traversal_style",
]
