"""Smoothed-particle hydrodynamics (paper §III-B, Fig 11).

Each iteration runs a k-nearest-neighbours traversal to find every
particle's principal density contributors, sums kernel-weighted masses into
a density, models the pressure field, and applies pairwise pressure forces.
The Gadget-2 comparison baseline converges a smoothing length per particle
by repeated fixed-ball searches instead — "more parallelizable but less
efficient" — and its extra traversal work is what Fig 11's gap comes from.
"""

from .kernels import cubic_spline_W, cubic_spline_gradW_over_r
from .density import SPHState, compute_density_knn
from .gadget_baseline import GadgetSmoothingResult, gadget_style_density
from .forces import compute_pressure_forces, equation_of_state
from .driver import SPHDriver

__all__ = [
    "cubic_spline_W",
    "cubic_spline_gradW_over_r",
    "SPHState",
    "compute_density_knn",
    "GadgetSmoothingResult",
    "gadget_style_density",
    "compute_pressure_forces",
    "equation_of_state",
    "SPHDriver",
]
