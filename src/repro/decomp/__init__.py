"""Decomposition: dividing particles (load) and tree (memory) across processes.

Implements the paper's *Partitions–Subtrees* model (§II-C): Partitions own
particle buckets and represent work; Subtrees own tree segments and
represent memory.  The two are decomposed independently — Partitions by the
configured decomposition type (SFC, octree, longest-dimension/ORB), Subtrees
always consistently with the tree — and reconciled in the leaf-sharing step,
where buckets whose particles span several Partitions are split into local
buckets (Fig 5).
"""

from .splitters import (
    Decomposer,
    SfcDecomposer,
    HilbertDecomposer,
    OctDecomposer,
    LongestDimDecomposer,
    get_decomposer,
    register_decomposer,
)
from .partitions import (
    Decomposition,
    Partition,
    Subtree,
    decompose,
    branch_duplication_count,
)
from .buildtime import BuildTimes, estimate_build_times
from .loadbalance import (
    imbalance,
    sfc_rebalance,
    spatial_bisection_rebalance,
)

__all__ = [
    "Decomposer",
    "SfcDecomposer",
    "HilbertDecomposer",
    "OctDecomposer",
    "LongestDimDecomposer",
    "get_decomposer",
    "register_decomposer",
    "Decomposition",
    "Partition",
    "Subtree",
    "decompose",
    "branch_duplication_count",
    "BuildTimes",
    "estimate_build_times",
    "imbalance",
    "sfc_rebalance",
    "spatial_bisection_rebalance",
]
