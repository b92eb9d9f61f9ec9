"""Tree-build phase time model: Partitions-Subtrees vs the traditional model.

§II-C's motivation is the *build*, not just the traversal: "All such branch
nodes, or tree nodes whose descendants are divided across multiple
processing elements, require synchronization to merge their data ... At the
extreme end of strong scaling ... merging these tree nodes will require a
significant amount of communication."

This model turns the structural quantities we measure for real
(:func:`~repro.decomp.partitions.branch_duplication_count`, the
leaf-sharing counts of :func:`~repro.decomp.partitions.decompose`) into
build-phase times on a :class:`~repro.runtime.machine.MachineSpec`:

* **both models** pay a local sort+build proportional to the heaviest
  process's particle count;
* **traditional** pays a log₂(P)-round reduction that merges every
  duplicated branch node's data (bytes + latency per round);
* **Partitions-Subtrees** pays the one-shot leaf-sharing exchange (the
  split-bucket particles, point-to-point), which the paper measures at
  0.1-0.4 % of iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..trees import Tree
from .partitions import branch_duplication_count, decompose

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..runtime.machine import MachineSpec

__all__ = ["BuildTimes", "estimate_build_times"]

#: per-particle local sort+build cost on the reference 2.1 GHz core
_C_BUILD = 2.5e-7
#: per-node merge CPU cost (deserialize + combine moments)
_C_MERGE = 1.5e-7


@dataclass
class BuildTimes:
    """Build-phase breakdown for one model at one process count."""

    model: str
    n_processes: int
    local_build: float
    sync_time: float      # merge reduction (traditional) / leaf share (P-S)
    sync_bytes: float

def estimate_build_times(
    tree: Tree,
    particle_partition: np.ndarray,
    n_processes: int,
    machine: "MachineSpec | None" = None,
    workers_per_process: int | None = None,
) -> tuple[BuildTimes, BuildTimes]:
    """(traditional, partitions_subtrees) build times for one assignment.

    ``particle_partition`` is the per-particle (tree-order) partition id;
    partitions map to processes in blocks like the traversal DES does.
    ``machine`` defaults to Stampede2.
    """
    # Imported here: decomp must not depend on cache/runtime at load time
    # (cache.stats itself imports decomp).
    from ..cache.stats import NODE_BYTES, PARTICLE_BYTES
    from ..runtime.machine import STAMPEDE2

    machine = machine or STAMPEDE2
    particle_partition = np.asarray(particle_partition)
    n_parts = int(particle_partition.max()) + 1
    workers = workers_per_process or machine.workers_per_node
    clock = 2.1 / machine.clock_ghz

    part_proc = (np.arange(n_parts) * n_processes) // n_parts
    proc_of_particle = part_proc[particle_partition]
    counts = np.bincount(proc_of_particle, minlength=n_processes)
    # local build parallelises over a process's workers
    local = float(counts.max()) * _C_BUILD * clock / workers

    # --- traditional: duplicated branch nodes merged in a reduction -------
    dup_nodes = branch_duplication_count(tree, particle_partition)
    rounds = max(int(np.ceil(np.log2(max(n_processes, 2)))), 1)
    dup_bytes = dup_nodes * NODE_BYTES
    per_round_bytes = dup_bytes / max(n_processes, 1)
    sync_traditional = rounds * (
        machine.net_latency_s
        + per_round_bytes / machine.net_bandwidth_Bps
        + (dup_nodes / max(n_processes, 1)) * _C_MERGE * clock
    )
    traditional = BuildTimes(
        model="traditional",
        n_processes=n_processes,
        local_build=local,
        sync_time=float(sync_traditional),
        sync_bytes=float(dup_bytes),
    )

    # --- Partitions-Subtrees: one point-to-point leaf-sharing exchange ----
    dec = decompose(tree, particle_partition, n_subtrees=n_parts,
                    n_processes=n_processes)
    share_bytes = dec.n_shared_particles * PARTICLE_BYTES
    sync_ps = (
        machine.net_latency_s
        + (share_bytes / max(n_processes, 1)) / machine.net_bandwidth_Bps
        + (dec.n_shared_particles / max(n_processes, 1)) * _C_MERGE * clock
    )
    partitions_subtrees = BuildTimes(
        model="partitions-subtrees",
        n_processes=n_processes,
        local_build=local,
        sync_time=float(sync_ps),
        sync_bytes=float(share_bytes),
    )
    return traditional, partitions_subtrees
