"""Reference SPH force sums by pair scatter.

The pressure-force and viscosity maths of :mod:`repro.apps.sph.forces` and
:mod:`repro.apps.sph.viscosity`, written over the valid ``(i, j)`` neighbour
pairs and scattered into their rows with ``np.add.at``.  ``np.add.at`` adds
a row's pairs one at a time in pair order into ``+0.0`` — that is the byte
oracle the product's per-row sums are pinned to.
"""

from __future__ import annotations

import numpy as np

from repro.apps.sph.kernels import cubic_spline_gradW_over_r


def _valid_pairs(neighbors):
    n, k = neighbors.index.shape
    i = np.repeat(np.arange(n), k)
    j = neighbors.index.ravel()
    valid = j >= 0
    return n, i[valid], j[valid]


def pressure_forces(tree, neighbors, density, pressure, h):
    """``compute_pressure_forces`` by ``np.add.at``."""
    pos = tree.particles.position
    mass = tree.particles.mass
    n, i, j = _valid_pairs(neighbors)
    dvec = pos[i] - pos[j]
    r = np.linalg.norm(dvec, axis=1)
    h_pair = 0.5 * (h[i] + h[j])
    gw = cubic_spline_gradW_over_r(r, h_pair)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = -mass[j] * (
            pressure[i] / np.maximum(density[i], 1e-300) ** 2
            + pressure[j] / np.maximum(density[j], 1e-300) ** 2
        ) * gw
    acc = np.zeros((n, 3))
    np.add.at(acc, i, coef[:, None] * dvec)
    return acc


def sph_accelerations(tree, neighbors, density, pressure, h, sound_speed=None,
                      viscosity=None, gamma=5.0 / 3.0):
    """``compute_sph_accelerations`` by ``np.add.at``."""
    pos = tree.particles.position
    vel = tree.particles.velocity
    mass = tree.particles.mass
    n, i, j = _valid_pairs(neighbors)
    dvec = pos[i] - pos[j]
    dv = vel[i] - vel[j]
    r = np.linalg.norm(dvec, axis=1)
    h_pair = 0.5 * (h[i] + h[j])
    gw = cubic_spline_gradW_over_r(r, h_pair)
    grad = gw[:, None] * dvec

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
        mu[approaching] = h_pair[approaching] * vdotr[approaching] / denom[approaching]
        c_bar = 0.5 * (sound_speed[i] + sound_speed[j])
        rho_bar = 0.5 * (rho_i + rho_j)
        visc = (-viscosity.alpha * c_bar * mu + viscosity.beta * mu**2) / rho_bar
        visc[~approaching] = 0.0

    coef = -(p_term + visc) * mass[j]
    accel = np.zeros((n, 3))
    np.add.at(accel, i, coef[:, None] * grad)
    vdotgrad = np.einsum("pj,pj->p", dv, grad)
    du_pair = mass[j] * (pressure[i] / rho_i**2 + 0.5 * visc) * vdotgrad
    du_dt = np.zeros(n)
    np.add.at(du_dt, i, du_pair)
    return accel, du_dt
