"""Turning a real traversal into a DES workload description.

:func:`workload_from_traversal` consumes the interaction lists recorded
during an actual (laptop-scale) traversal and produces, per target bucket,
the compute cost broken down by *fetch group* — the unit of remote data a
single cache request ships.  At simulation time the groups resolve to
local/remote depending on where the owning subtree is placed, so one
workload serves every (process count, cache model) combination of a scaling
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache.stats import FetchGroups, assign_fetch_groups
from ..core.traverser import InteractionLists
from ..decomp import Decomposition
from ..trees import Tree

__all__ = ["CostModel", "BucketWork", "WorkloadSpec", "workload_from_traversal"]


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs (seconds) on the reference CPU (SKX @ 2.1 GHz).

    ``c_pp``/``c_pn``/``c_open`` are calibrated so that the Table II
    reference workload (100k uniform particles, θ = 0.7, bucket 16) costs
    ≈ 9.2 s on one simulated SKX core for the transposed style, matching the
    paper's measurement; ``style_multiplier`` encodes Table II's observed
    runtime ratio between the traversal styles (ChaNGa's per-bucket walk
    runs the same interactions ~1.7× slower due to cache behaviour — see
    the memsim reproduction of Table II for the mechanism).
    """

    c_pp: float = 9.0e-8      # per particle-particle interaction
    c_pn: float = 1.1e-7      # per particle-node interaction
    c_open: float = 4.0e-8    # per opening-criterion evaluation
    request_cpu: float = 1.0e-6   # worker time to issue one request
    insert_fixed: float = 2.0e-6  # fixed cost of one cache insertion
    insert_per_byte: float = 2.0e-10  # deserialize + wire per byte
    #: home-side comm-thread time to serialize one response (§III-A: "the
    #: costs of these extra requests and responses" hit the home process
    #: too; calibrated so duplicated-fetch designs stay hidden behind
    #: compute until the communication-bound regime, as in Fig 3)
    serialize_fixed: float = 2.0e-7
    serialize_per_byte: float = 1.0e-10
    style_multiplier: tuple[tuple[str, float], ...] = (
        ("transposed", 1.0),
        ("per-bucket", 1.72),
        ("basic", 1.72),
    )

    def style_factor(self, style: str) -> float:
        for name, f in self.style_multiplier:
            if name == style:
                return f
        raise ValueError(f"no style multiplier for {style!r}")

    def scaled_to(self, clock_ghz: float, reference_ghz: float = 2.1) -> "CostModel":
        """Scale compute costs to another CPU clock (communication terms are
        unchanged)."""
        f = reference_ghz / clock_ghz
        return CostModel(
            c_pp=self.c_pp * f,
            c_pn=self.c_pn * f,
            c_open=self.c_open * f,
            request_cpu=self.request_cpu * f,
            insert_fixed=self.insert_fixed * f,
            insert_per_byte=self.insert_per_byte * f,
            serialize_fixed=self.serialize_fixed * f,
            serialize_per_byte=self.serialize_per_byte * f,
            style_multiplier=self.style_multiplier,
        )


@dataclass
class BucketWork:
    """Compute cost of one target bucket, keyed by fetch group (-1 = the
    replicated shared branch, always local)."""

    leaf: int
    partition: int
    work_by_group: dict[int, float] = field(default_factory=dict)

    @property
    def total_work(self) -> float:
        return sum(self.work_by_group.values())


@dataclass
class WorkloadSpec:
    """Everything the DES needs, independent of process count."""

    buckets: list[BucketWork]
    groups: FetchGroups
    n_partitions: int
    n_subtrees: int

    @property
    def total_work(self) -> float:
        return sum(b.total_work for b in self.buckets)


def workload_from_traversal(
    tree: Tree,
    decomp: Decomposition,
    lists: InteractionLists,
    cost: CostModel | None = None,
    nodes_per_request: int = 3,
    shared_branch_levels: int = 3,
    groups: FetchGroups | None = None,
) -> WorkloadSpec:
    """Build the per-bucket, per-group cost breakdown from recorded lists
    (over ``groups`` when the caller has already assigned them)."""
    cost = cost or CostModel()
    if groups is None:
        groups = assign_fetch_groups(
            tree, decomp, nodes_per_request=nodes_per_request,
            shared_branch_levels=shared_branch_levels,
        )
    counts = tree.pend - tree.pstart
    group_of_node = groups.group_of_node

    # Majority-owner partition per leaf (same rule as cache.stats).
    pp = decomp.particle_partition
    leaf_part: dict[int, int] = {}
    for leaf in tree.leaf_indices:
        s, e = int(tree.pstart[leaf]), int(tree.pend[leaf])
        vals, cnt = np.unique(pp[s:e], return_counts=True)
        leaf_part[int(leaf)] = int(vals[np.argmax(cnt)])

    buckets: list[BucketWork] = []
    for leaf in tree.leaf_indices:
        leaf = int(leaf)
        nb = int(counts[leaf])
        bw = BucketWork(leaf=leaf, partition=leaf_part[leaf])
        wbg = bw.work_by_group
        for node in lists.visited.get(leaf, ()):  # opening tests
            g = int(group_of_node[node])
            wbg[g] = wbg.get(g, 0.0) + cost.c_open
        for node in lists.node_lists.get(leaf, ()):  # centroid approximations
            g = int(group_of_node[node])
            wbg[g] = wbg.get(g, 0.0) + cost.c_pn * nb
        for src in lists.leaf_lists.get(leaf, ()):  # exact leaf interactions
            g = int(group_of_node[src])
            wbg[g] = wbg.get(g, 0.0) + cost.c_pp * nb * int(counts[src])
        buckets.append(bw)

    return WorkloadSpec(
        buckets=buckets,
        groups=groups,
        n_partitions=len(decomp.partitions),
        n_subtrees=len(decomp.subtrees),
    )
