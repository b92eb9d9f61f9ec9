"""Reference node approximations: the ``gravApprox`` helpers of the paper's
Fig 7, one node against an array of targets.

These are ``repro.apps.gravity.kernels.point_mass_accel`` /
``quadrupole_accel`` as they stood while that module existed, moved here
verbatim when nothing in ``src/`` called them any more.  They state the
Plummer monopole and the traceless-quadrupole expansion in einsum / matmul
form (``(r² + ε²) ** 1.5``, ``d @ Q.T``) — an operation order that shares
nothing with the by-coordinate kernels of ``repro.trees.kernels``, which is
what makes them an independent oracle for those (to rounding, not in bits).
"""

from __future__ import annotations

import numpy as np

__all__ = ["point_mass_accel", "quadrupole_accel"]


def point_mass_accel(
    targets: np.ndarray,
    center: np.ndarray,
    mass: float,
    G: float = 1.0,
    softening: float = 0.0,
) -> np.ndarray:
    """Monopole ``gravApprox``: treat a whole node as one point mass."""
    targets = np.atleast_2d(targets)
    d = np.asarray(center)[None, :] - targets  # (nt, 3)
    r2 = np.einsum("tj,tj->t", d, d)
    eps2 = softening * softening
    denom = (r2 + eps2) ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(r2 > 0.0, G * mass / denom, 0.0)
    return w[:, None] * d


def quadrupole_accel(
    targets: np.ndarray,
    center: np.ndarray,
    mass: float,
    quad: np.ndarray,
    G: float = 1.0,
    softening: float = 0.0,
) -> np.ndarray:
    """Monopole + traceless-quadrupole node approximation.

    ``quad`` is the traceless quadrupole tensor about the node centroid:
    ``Q = Σ m (3 dd^T - |d|² I)``.  The acceleration is

    ``a = G [ m r / r³ + Q·r / r⁵ − 5/2 (rᵀQr) r / r⁷ ]``

    with Plummer softening folded into the radial powers.  This is the
    "higher order multipole expansion" option of the paper's gravity solver.
    """
    targets = np.atleast_2d(targets)
    d = np.asarray(center)[None, :] - targets  # vector from target to node
    r2 = np.einsum("tj,tj->t", d, d) + softening * softening
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r2 = np.where(r2 > 0.0, 1.0 / r2, 0.0)
    inv_r = np.sqrt(inv_r2)
    inv_r3 = inv_r2 * inv_r
    inv_r5 = inv_r3 * inv_r2
    inv_r7 = inv_r5 * inv_r2
    mono = (G * mass) * inv_r3[:, None] * d
    qd = d @ np.asarray(quad).T  # (nt, 3): Q·d (Q symmetric)
    dqd = np.einsum("tj,tj->t", d, qd)
    quad_term = G * (-(qd * inv_r5[:, None]) + 2.5 * (dqd * inv_r7)[:, None] * d)
    # Sign note: with d pointing target->node, the monopole term is
    # attractive as written; the quadrupole correction follows Dehnen (2002).
    return mono + quad_term
