"""Artificial viscosity and the energy equation (Monaghan 1992).

The paper's SPH section evolves "density, internal energy and pressure
fields"; shock handling in Gadget-2-lineage codes uses the standard
Monaghan α/β viscosity.  This module extends the pressure-force kernel
with:

* the pairwise viscous term ``Π_ij = (-α c̄ μ + β μ²)/ρ̄`` applied only to
  approaching pairs (``v·r < 0``),
* the matching ``du/dt`` so the dissipated kinetic energy reappears as
  heat (total energy is conserved up to neighbour-list truncation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...trees import Tree
from ..knn import KNNResult
from .forces import neighbour_pairs, sum_rows

__all__ = ["ViscosityParams", "compute_sph_accelerations"]


@dataclass(frozen=True)
class ViscosityParams:
    """Monaghan viscosity parameters (Gadget-2 defaults α≈1, β=2α)."""

    alpha: float = 1.0
    beta: float = 2.0
    #: softening in the μ denominator, in units of h̄² (avoids divergence
    #: for nearly-coincident approaching pairs)
    eta_sq: float = 0.01


def compute_sph_accelerations(
    tree: Tree,
    neighbors: KNNResult,
    density: np.ndarray,
    pressure: np.ndarray,
    h: np.ndarray,
    sound_speed: np.ndarray | None = None,
    viscosity: ViscosityParams | None = None,
    gamma: float = 5.0 / 3.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pressure + viscous accelerations and the energy rate.

    Returns ``(accel (N, 3), du_dt (N,))`` in tree order.  With
    ``viscosity=None`` this reduces to the inviscid momentum equation plus
    the adiabatic ``du/dt = P/ρ² dρ/dt`` work term evaluated pairwise.
    """
    vel = tree.particles.velocity
    mass = tree.particles.mass
    i, j, dvec, r, h_pair, gw = neighbour_pairs(tree, neighbors, h)
    dv = vel[i] - vel[j]
    grad = gw[:, None] * dvec                   # ∇_i W_ij

    rho_i = np.maximum(density[i], 1e-300)
    rho_j = np.maximum(density[j], 1e-300)
    p_term = pressure[i] / rho_i**2 + pressure[j] / rho_j**2

    visc = np.zeros(len(i))
    if viscosity is not None:
        if sound_speed is None:
            sound_speed = np.sqrt(gamma * pressure / np.maximum(density, 1e-300))
        vdotr = np.einsum("pj,pj->p", dv, dvec)
        approaching = vdotr < 0
        mu = np.zeros(len(i))
        denom = r**2 + viscosity.eta_sq * h_pair**2
        mu[approaching] = (
            h_pair[approaching] * vdotr[approaching] / denom[approaching]
        )
        c_bar = 0.5 * (sound_speed[i] + sound_speed[j])
        rho_bar = 0.5 * (rho_i + rho_j)
        visc = (-viscosity.alpha * c_bar * mu + viscosity.beta * mu**2) / rho_bar
        visc[~approaching] = 0.0

    coef = -(p_term + visc) * mass[j]
    accel = sum_rows(coef[:, None] * grad, neighbors.index)

    # Energy equation: du_i/dt = ½ Σ_j m_j (P_i/ρ_i² + Π_ij) (v_i−v_j)·∇W.
    vdotgrad = np.einsum("pj,pj->p", dv, grad)
    du_pair = mass[j] * (pressure[i] / rho_i**2 + 0.5 * visc) * vdotgrad
    return accel, sum_rows(du_pair, neighbors.index)
