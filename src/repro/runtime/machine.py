"""Simulated machine descriptions (paper Table I).

Core counts, CPU types and communication layers come straight from Table I;
interconnect latencies/bandwidths are public figures for the respective
fabrics (EDR/HDR InfiniBand, Intel OPA) and per-interaction costs are
calibrated so single-node iteration times land in the regime the paper
reports.  The *shapes* of the scaling studies depend on the ratios
(compute per byte moved, latency vs task grain), not on the absolute
values; EXPERIMENTS.md discusses sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "SUMMIT", "STAMPEDE2", "BRIDGES2", "MACHINES"]


@dataclass(frozen=True)
class MachineSpec:
    """One supercomputer configuration for the DES.

    Attributes
    ----------
    cores_per_node:
        Physical cores used per node (Table I "Cores/N").
    smt:
        Hardware threads per core used as workers (Summit runs 2-way SMT in
        Fig 10: "84 workers per node" on 42 cores).
    clock_ghz:
        Nominal clock; scales per-interaction compute cost.
    net_latency_s:
        One-way inter-node message latency (seconds).
    net_bandwidth_Bps:
        Per-process share of injection bandwidth (bytes/second).
    intra_latency_s:
        Latency of an intra-node (inter-process, same node) message.
    comm_layer:
        Informational (Table I "Comm. Layer").
    """

    name: str
    cores_per_node: int
    cpu_type: str
    clock_ghz: float
    comm_layer: str
    smt: int = 1
    net_latency_s: float = 1.5e-6
    net_bandwidth_Bps: float = 12.5e9
    intra_latency_s: float = 3.0e-7

    @property
    def workers_per_node(self) -> int:
        return self.cores_per_node * self.smt

#: ORNL Summit: POWER9, NVLink/EDR IB via UCX; Fig 10 uses 2-way SMT
#: (42 cores -> 84 workers per node).
SUMMIT = MachineSpec(
    name="Summit",
    cores_per_node=42,
    cpu_type="POWER9",
    clock_ghz=3.1,
    comm_layer="UCX",
    smt=2,
    net_latency_s=1.3e-6,
    net_bandwidth_Bps=23e9 / 2,  # dual-rail EDR, shared
    intra_latency_s=2.5e-7,
)

#: TACC Stampede2 SKX partition: Skylake 8160, Intel Omni-Path (MPI layer).
STAMPEDE2 = MachineSpec(
    name="Stampede2",
    cores_per_node=48,
    cpu_type="Skylake",
    clock_ghz=2.1,
    comm_layer="MPI",
    smt=1,
    net_latency_s=1.8e-6,
    net_bandwidth_Bps=12.5e9,
    intra_latency_s=3.0e-7,
)

#: PSC Bridges2 RM: EPYC 7742, HDR-200 InfiniBand.
BRIDGES2 = MachineSpec(
    name="Bridges2",
    cores_per_node=128,
    cpu_type="EPYC 7742",
    clock_ghz=2.25,
    comm_layer="Infiniband",
    smt=1,
    net_latency_s=1.2e-6,
    net_bandwidth_Bps=25e9,
    intra_latency_s=3.0e-7,
)

MACHINES: dict[str, MachineSpec] = {
    m.name: m for m in (SUMMIT, STAMPEDE2, BRIDGES2)
}
