"""Table II orchestration: profile a traversal style on N simulated CPUs.

For ``n_cpus`` CPUs the target buckets are block-partitioned (the Partition
placement of the paper's experiment: "the set of buckets in a Partition fits
in the L2 cache"), each CPU's traversal is run for real to produce its
access stream, and the streams are interleaved through the shared-L3 SKX
hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.gravity import GravityVisitor, compute_centroid_arrays
from ..core import get_traverser
from ..obs import get_telemetry, traced
from ..trees import Tree
from .hierarchy import CacheHierarchy
from .trace import DataLayout, MemoryTraceRecorder, interleave_traces, replay_trace

__all__ = ["CacheProfile", "profile_traversal_style"]

#: Simulated access latencies (cycles) for the runtime estimate: L1 hit,
#: L2 hit, L3 hit, DRAM.  Standard SKX figures.
_LAT_L1, _LAT_L2, _LAT_L3, _LAT_MEM = 4, 14, 50, 200


@dataclass
class CacheProfile:
    """One row of Table II (one style, one CPU count)."""

    style: str
    n_cpus: int
    n_accesses: int
    l1_loads: int
    l1_stores: int
    l1_load_miss_rate: float
    l2_load_miss_rate: float
    l3_load_miss_rate: float
    l1l2_store_miss_rate: float
    l3_store_miss_rate: float
    runtime_estimate_s: float

@traced("memsim.profile", cat="memsim")
def profile_traversal_style(
    tree: Tree,
    style: str,
    n_cpus: int = 1,
    theta: float = 0.7,
    clock_ghz: float = 2.1,
    max_accesses: int | None = None,
    layout: DataLayout | None = None,
    buckets_per_partition: int = 96,
    cache_scale: int = 1,
) -> CacheProfile:
    """Run the real traversal per CPU, replay the merged trace, summarise.

    ``style`` names the visit ordering to trace (``"transposed"`` or
    ``"per-bucket"``, the two rows of Table II); a trace is a property of
    the ordering, so there is no default to inherit.

    Buckets are first block-partitioned across CPUs, then each CPU walks
    its buckets one *Partition* at a time (``buckets_per_partition``),
    because the Table II experiment sizes Partitions so a Partition's bucket
    set fits in L2 — the transposed traversal streams one Partition's
    buckets per node, not the whole machine's.

    ``cache_scale`` divides every cache capacity by that factor so a scaled
    problem (e.g. 25k particles) sits in the same regime relative to the
    hierarchy as the paper's 100k vs a 33 MB L3.
    """
    arrays = compute_centroid_arrays(tree, theta=theta)
    leaves = tree.leaf_indices
    # Block-partition buckets across CPUs (contiguous in tree order, like
    # SFC partitions bound to processes).
    bounds = np.linspace(0, len(leaves), n_cpus + 1).astype(int)
    traces = []
    engine = get_traverser(style)
    for c in range(n_cpus):
        my_leaves = leaves[bounds[c]:bounds[c + 1]]
        if len(my_leaves) == 0:
            continue
        recorder = MemoryTraceRecorder(tree, style, layout)
        visitor = GravityVisitor(tree, arrays)
        for s in range(0, len(my_leaves), buckets_per_partition):
            targets = my_leaves[s:s + buckets_per_partition]
            engine.traverse(tree, visitor, targets, recorder)
        traces.append(recorder.trace())

    addrs, writes, cpus = interleave_traces(traces)
    # L1 stays at its true 32 KB (a bucket batch must relate to L1 exactly
    # as in hardware); cache_scale shrinks L2/L3 so the scaled-down problem
    # keeps the paper's regime: Partition buckets ⊂ L2, traversed tree ⊂ L3.
    hier = CacheHierarchy(
        n_cpus=n_cpus,
        l1=(32 * 1024, 8),
        l2=(1024 * 1024 // cache_scale, 16),
        l3=(33 * 1024 * 1024 // cache_scale // 64 // 11 * 11 * 64, 11),
    )
    replay_trace(hier, addrs, writes, cpus, max_accesses=max_accesses)
    st = hier.stats()
    row = st.as_table_row()

    telemetry = get_telemetry()
    if telemetry.enabled:
        for level, cache_stats in (("L1", st.l1), ("L2", st.l2), ("L3", st.l3)):
            telemetry.metrics.absorb_cache_stats(
                cache_stats, level=level, style=style, n_cpus=n_cpus
            )

    # Cycle-weighted runtime estimate from the hit distribution (divided
    # across CPUs; the traversal is embarrassingly parallel over buckets).
    l1_hits = st.l1.accesses - st.l1.misses
    l2_hits = st.l2.accesses - st.l2.misses
    l3_hits = st.l3.accesses - st.l3.misses
    mem = st.l3.misses
    cycles = (
        l1_hits * _LAT_L1 + l2_hits * _LAT_L2 + l3_hits * _LAT_L3 + mem * _LAT_MEM
    )
    runtime = cycles / (clock_ghz * 1e9) / n_cpus

    return CacheProfile(
        style=style,
        n_cpus=n_cpus,
        n_accesses=int(st.l1.accesses),
        l1_loads=int(row["l1_loads"]),
        l1_stores=int(row["l1_stores"]),
        l1_load_miss_rate=float(row["l1_load_miss_rate"]),
        l2_load_miss_rate=float(row["l2_load_miss_rate"]),
        l3_load_miss_rate=float(row["l3_load_miss_rate"]),
        l1l2_store_miss_rate=float(row["l1l2_store_miss_rate"]),
        l3_store_miss_rate=float(row["l3_store_miss_rate"]),
        runtime_estimate_s=float(runtime),
    )
