"""Direct-summation O(N²) gravity: the accuracy reference for Barnes-Hut."""

from __future__ import annotations

import numpy as np

from ...particles import ParticleSet
from ...trees.kernels import pairwise_accel, pairwise_potential

__all__ = ["direct_accelerations", "direct_potential", "acceleration_error"]


def direct_accelerations(
    particles: ParticleSet,
    G: float = 1.0,
    softening: float = 0.0,
    chunk: int = 1024,
) -> np.ndarray:
    """Exact mutual accelerations, chunked to bound the (nt, ns, 3) temporary."""
    pos = particles.position
    mass = particles.mass
    out = np.empty_like(pos)
    for s in range(0, len(pos), chunk):
        e = min(s + chunk, len(pos))
        out[s:e] = pairwise_accel(pos[s:e], pos, mass, G, softening)
    return out


def direct_potential(
    particles: ParticleSet,
    G: float = 1.0,
    softening: float = 0.0,
    chunk: int = 1024,
) -> np.ndarray:
    pos = particles.position
    mass = particles.mass
    out = np.empty(len(pos))
    for s in range(0, len(pos), chunk):
        e = min(s + chunk, len(pos))
        out[s:e] = pairwise_potential(pos[s:e], pos, mass, G, softening)
    return out


def acceleration_error(approx: np.ndarray, exact: np.ndarray) -> dict[str, float]:
    """Relative force-error summary: per-particle |Δa| / |a_exact|."""
    num = np.linalg.norm(approx - exact, axis=1)
    den = np.linalg.norm(exact, axis=1)
    rel = num / np.where(den > 0, den, 1.0)
    return {
        "mean": float(rel.mean()),
        "median": float(np.median(rel)),
        "p99": float(np.percentile(rel, 99)),
        "max": float(rel.max()),
    }
