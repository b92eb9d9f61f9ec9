"""Barnes-Hut gravity on ParaTreeT abstractions (paper §II-D-3, §III-A)."""

from .centroid import CentroidData, GravityNodeArrays, compute_centroid_arrays
from .direct import acceleration_error, direct_accelerations, direct_potential
from .integrator import LeapfrogIntegrator, kick, drift, kick_drift_kick_half
from .solver import GravityDriver, GravityResult, compute_gravity, compute_gravity_on_tree
from .fmm import FMMResult, FMMVisitor, compute_fmm_gravity, derivative_tensors
from .periodic import PeriodicGravityResult, compute_gravity_periodic, minimum_image
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
    "FMMResult",
    "FMMVisitor",
    "compute_fmm_gravity",
    "derivative_tensors",
    "PeriodicGravityResult",
    "compute_gravity_periodic",
    "minimum_image",
    "direct_accelerations",
    "direct_potential",
    "acceleration_error",
    "pairwise_accel",
    "pairwise_potential",
    "LeapfrogIntegrator",
    "kick",
    "drift",
    "kick_drift_kick_half",
]
