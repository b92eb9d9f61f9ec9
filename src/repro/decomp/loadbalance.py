"""Load re-balancing strategies (paper §II-D-1, §V).

Two built-in strategies, both adopted from the ChaNGa/Charm++ lineage:

* :func:`sfc_rebalance` — "mapping measured load to the space-filling curve
  and redistributing it in chunks": particles keep their SFC order but the
  curve is re-sliced by *measured* load instead of particle count.
* :func:`spatial_bisection_rebalance` — "aggregating load and assigning it
  recursively in 3D space": orthogonal recursive bisection with measured
  weights.

Both return a fresh per-particle partition assignment;
:func:`apply_rebalance` rewires an existing :class:`Decomposition`.
The paper reports these reduce the 1536-core gravity runtime by ~26 %
(with the evaluation otherwise run LB-off); the ablation bench
reproduces that contrast through the DES.
"""

from __future__ import annotations

import numpy as np

from ..geometry import morton_keys
from ..particles import ParticleSet
from .partitions import Decomposition, decompose
from .splitters import LongestDimDecomposer, _weighted_contiguous_slices

__all__ = ["imbalance", "sfc_rebalance", "spatial_bisection_rebalance",
           "LB_STRATEGIES", "apply_rebalance"]


def imbalance(loads: np.ndarray) -> float:
    """Max/mean load ratio; 1.0 is perfect balance."""
    loads = np.asarray(loads, dtype=np.float64)
    if len(loads) == 0 or loads.sum() == 0:
        return 1.0
    return float(loads.max() / loads.mean())


def sfc_rebalance(
    particles: ParticleSet, measured_load: np.ndarray, n_parts: int
) -> np.ndarray:
    """Re-slice the Morton curve so each slice carries equal measured load."""
    measured_load = np.asarray(measured_load, dtype=np.float64)
    if np.any(measured_load < 0):
        raise ValueError("loads must be non-negative")
    box = particles.bounding_box().cubified()
    keys = morton_keys(particles.position, box)
    order = np.argsort(keys, kind="stable")
    # Guard against all-zero load (first iteration): fall back to counts.
    if measured_load.sum() == 0:
        measured_load = np.ones(len(particles))
    return _weighted_contiguous_slices(order, measured_load, n_parts)


def spatial_bisection_rebalance(
    particles: ParticleSet, measured_load: np.ndarray, n_parts: int
) -> np.ndarray:
    """Recursive orthogonal bisection with measured load as weights."""
    measured_load = np.asarray(measured_load, dtype=np.float64)
    if measured_load.sum() == 0:
        measured_load = np.ones(len(particles))
    return LongestDimDecomposer().assign(particles, n_parts, weights=measured_load)


#: ``Configuration.lb_strategy`` -> strategy
LB_STRATEGIES = {"sfc": sfc_rebalance, "spatial": spatial_bisection_rebalance}


def apply_rebalance(
    decomp: Decomposition, new_particle_partition: np.ndarray
) -> Decomposition:
    """Rebuild the Partitions view of an existing decomposition with a new
    assignment (the Subtrees — and hence the tree — are untouched: in the
    Partitions-Subtrees model load moves without moving memory)."""
    return decompose(
        decomp.tree,
        new_particle_partition,
        n_subtrees=len(decomp.subtrees),
        n_processes=decomp.n_processes,
    )
