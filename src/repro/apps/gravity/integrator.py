"""Time integration: leapfrog (kick-drift-kick) for N-body evolution.

The traversal frameworks in the paper recompute forces each iteration; the
integrator is the ``postTraversal`` physics that consumes them.
"""

from __future__ import annotations

import numpy as np

from ...particles import ParticleSet

__all__ = ["kick", "drift", "kick_drift_kick_half"]


def kick(particles: ParticleSet, accel: np.ndarray, dt: float) -> None:
    """v += a dt (in place)."""
    particles.velocity += accel * dt


def drift(particles: ParticleSet, dt: float) -> None:
    """x += v dt (in place)."""
    particles.position += particles.velocity * dt


def kick_drift_kick_half(particles: ParticleSet, accel: np.ndarray, dt: float) -> None:
    """One KDK step given accelerations at the step start.

    Standard leapfrog splitting: half-kick, full drift; the closing
    half-kick, strictly, belongs to the *next* force evaluation (a caller
    that recomputes forces between the two half-kicks composes
    :func:`kick` and :func:`drift` itself).
    """
    kick(particles, accel, 0.5 * dt)
    drift(particles, dt)
    kick(particles, accel, 0.5 * dt)
