"""Density estimation via k-nearest neighbours (the ParaTreeT way).

"Each iteration of SPH starts with a k-nearest neighbors traversal for each
particle to find its principal contributors of density.  Each neighbor's
mass and distance is summed and weighted with a smoothing kernel to
determine the density of the target."  The smoothing length is *defined* by
the k-th neighbour distance, so one traversal fixes both h and ρ — this is
the algorithmic edge over the Gadget-2 ball iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import TraversalStats
from ...trees import Tree
from ..knn import KNNResult, knn_search
from .kernels import cubic_spline_W

__all__ = ["SPHState", "compute_density_knn", "density_from_neighbors"]


@dataclass
class SPHState:
    """Per-particle SPH quantities, in tree order."""

    h: np.ndarray        # (N,) smoothing length (support radius)
    density: np.ndarray  # (N,)
    neighbors: KNNResult | None
    stats: TraversalStats


def density_from_neighbors(
    tree: Tree,
    nbr_index: np.ndarray,
    nbr_dist_sq: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """Cubic-spline-weighted mass sum over given neighbour lists (+ self
    term)."""
    mass = tree.particles.mass
    r = np.sqrt(nbr_dist_sq)
    w = cubic_spline_W(r, h[:, None])
    rho = np.einsum("nk,nk->n", mass[nbr_index], w)
    rho += mass * cubic_spline_W(np.zeros(len(h)), h)  # self contribution
    return rho


def compute_density_knn(
    tree: Tree,
    k: int = 32,
    eta: float = 1.001,
    targets: np.ndarray | None = None,
    backend=None,
) -> SPHState:
    """One kNN traversal → smoothing lengths and densities.

    ``h_i = eta * d_k(i)``: the support radius is (just over) the k-th
    neighbour distance, so exactly the k found neighbours contribute.
    ``backend`` runs the neighbour traversal through a ``repro.exec``
    execution backend (bit-identical to serial).
    """
    result = knn_search(tree, k, targets=targets, backend=backend)
    h = eta * np.sqrt(result.dist_sq[:, -1])
    # Degenerate protection: coincident particle piles can give d_k == 0.
    floor = 1e-12 * max(float(np.max(tree.box_hi[0] - tree.box_lo[0])), 1.0)
    h = np.maximum(h, floor)
    rho = density_from_neighbors(tree, result.index, result.dist_sq, h)
    return SPHState(h=h, density=rho, neighbors=result, stats=result.stats)
