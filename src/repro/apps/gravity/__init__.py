"""Barnes-Hut gravity on ParaTreeT abstractions (paper §II-D-3, §III-A)."""

from .centroid import CentroidData, GravityNodeArrays, compute_centroid_arrays
from .direct import acceleration_error, direct_accelerations, direct_potential
from .integrator import kick, drift, kick_drift_kick_half
from .solver import GravityDriver, GravityResult, compute_gravity, compute_gravity_on_tree
from .visitor import GravityVisitor
from ...trees.kernels import pairwise_accel, pairwise_potential

__all__ = [
    "CentroidData",
    "GravityNodeArrays",
    "compute_centroid_arrays",
    "GravityVisitor",
    "GravityDriver",
    "GravityResult",
    "compute_gravity",
    "compute_gravity_on_tree",
    "direct_accelerations",
    "direct_potential",
    "acceleration_error",
    "pairwise_accel",
    "pairwise_potential",
    "kick",
    "drift",
    "kick_drift_kick_half",
]
