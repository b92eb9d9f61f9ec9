"""Reference SPH force sums by pair scatter.

The pressure-force maths of :mod:`repro.apps.sph.forces`, written over the
valid ``(i, j)`` neighbour pairs and scattered into their rows with
``np.add.at``.  ``np.add.at`` adds a row's pairs one at a time in pair order
into ``+0.0`` — that is the byte oracle the product's per-row sums are
pinned to.
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
