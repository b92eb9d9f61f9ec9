"""Pressure field and pairwise SPH pressure forces (paper §III-B).

"This neighbor list is then used to model the pressure field surrounding
each particle.  A pressure force, which is determined by the gradient of
this field, is then applied to pairs of particles."

The standard symmetrised momentum equation is used:

``a_i = − Σ_j m_j (P_i/ρ_i² + P_j/ρ_j²) ∇W(r_ij, h̄_ij)``

with ``h̄`` the arithmetic mean of the pair's smoothing lengths.

Pair terms are evaluated over the whole ``(N, k)`` neighbour block, row
major, and each particle's are summed by row (:func:`sum_rows`).
"""

from __future__ import annotations

import numpy as np

from ...trees import Tree
from ..knn import KNNResult
from .kernels import cubic_spline_gradW_over_r

__all__ = ["equation_of_state", "compute_pressure_forces"]


def sum_rows(terms: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each particle's sum of its pair ``terms`` (one per slot of the
    ``(n, k)`` neighbour ``index`` block, row major), slot 0 first, added
    into ``+0.0``: the order of ``np.add.at`` over the valid pairs of
    ``repeat(arange(n), k)``, so the same bits.  A ``-1`` slot adds an
    exact ``+0.0`` whatever its gathered terms hold."""
    valid = (index >= 0).reshape(-1, *[1] * (terms.ndim - 1))
    block = np.where(valid, terms, 0.0).reshape(*index.shape, *terms.shape[1:])
    out = np.zeros((len(index), *terms.shape[1:]))
    for slot in range(index.shape[1]):
        out += block[:, slot]
    return out


def equation_of_state(
    density: np.ndarray,
    internal_energy: np.ndarray | float | None = None,
    gamma: float = 5.0 / 3.0,
    sound_speed: float | None = None,
) -> np.ndarray:
    """Pressure from density.

    Adiabatic ideal gas ``P = (γ−1) ρ u`` when ``internal_energy`` is given,
    isothermal ``P = c_s² ρ`` when ``sound_speed`` is given.
    """
    density = np.asarray(density, dtype=np.float64)
    if internal_energy is not None:
        return (gamma - 1.0) * density * np.asarray(internal_energy, dtype=np.float64)
    if sound_speed is not None:
        return sound_speed**2 * density
    raise ValueError("provide internal_energy or sound_speed")


def compute_pressure_forces(
    tree: Tree,
    neighbors: KNNResult,
    density: np.ndarray,
    pressure: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """Symmetrised pairwise pressure accelerations -> (N, 3), tree order.

    Evaluated over the kNN neighbour lists (each pair contributes through
    both particles' lists; using the pair-mean smoothing length keeps the
    interaction antisymmetric up to list asymmetry, which is the standard
    treatment when neighbour lists are truncated at fixed k).
    """
    pos, mass = tree.particles.position, tree.particles.mass
    # every slot of the neighbour block, row major; a -1 slot gathers the
    # last particle and sum_rows drops it
    n, k = neighbors.index.shape
    i = np.repeat(np.arange(n), k)
    j = neighbors.index.ravel()
    dvec = pos[i] - pos[j]
    gw = cubic_spline_gradW_over_r(np.linalg.norm(dvec, axis=1), 0.5 * (h[i] + h[j]))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = -mass[j] * (
            pressure[i] / np.maximum(density[i], 1e-300) ** 2
            + pressure[j] / np.maximum(density[j], 1e-300) ** 2
        ) * gw
    return sum_rows(coef[:, None] * dvec, neighbors.index)
