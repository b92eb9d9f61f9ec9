"""Collision detection between finite-radius particles.

Candidate pairs are gathered with a tree ball search (radius = own radius +
largest other radius + relative drift over the step), then refined with the
exact closest-approach test on the linear trajectories of the step — the
standard planetesimal-code treatment (cf. ChaNGa's collision module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import TraversalStats
from ...trees import Tree
from ..knn.balls import ball_search

__all__ = ["CollisionEvent", "closest_approach", "detect_collisions"]


@dataclass(frozen=True)
class CollisionEvent:
    """One detected collision (indices in tree order of the search tree)."""

    i: int
    j: int
    time: float          # within-step time of closest approach
    distance: float      # separation at that time
    position: np.ndarray  # midpoint at closest approach


def closest_approach(
    dr: np.ndarray, dv: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair time (clamped to [0, dt]) and squared distance of closest
    approach for linear relative motion ``dr + dv t``."""
    dr = np.atleast_2d(dr)
    dv = np.atleast_2d(dv)
    dv2 = np.einsum("ij,ij->i", dv, dv)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = np.where(dv2 > 0, -np.einsum("ij,ij->i", dr, dv) / dv2, 0.0)
    t_star = np.clip(t_star, 0.0, dt)
    closest = dr + dv * t_star[:, None]
    return t_star, np.einsum("ij,ij->i", closest, closest)


def detect_collisions(
    tree: Tree,
    dt: float,
    radius_field: str = "radius",
    v_rel_max: float | None = None,
    exclude_types: np.ndarray | None = None,
) -> tuple[list[CollisionEvent], TraversalStats]:
    """Find all particle pairs that come within the sum of their radii
    during a step of length ``dt``.

    ``v_rel_max`` bounds the relative speed used to inflate the search
    radius; by default it is estimated from the velocity spread.
    ``exclude_types`` is a boolean mask of particles to skip as *targets*
    (e.g. the star and planet — they collide with nothing at these radii).
    """
    p = tree.particles
    radii = p[radius_field]
    vel = p.velocity
    if v_rel_max is None:
        # Conservative: full spread of velocities.
        v_rel_max = float(np.linalg.norm(vel - vel.mean(axis=0), axis=1).max()) * 2.0
    r_max = float(radii.max())
    search = radii + r_max + v_rel_max * dt
    if exclude_types is not None:
        search = np.where(exclude_types, 0.0, search)

    lists, stats = ball_search(tree, search, include_self=False)

    # every unordered pair once, as (i, j) with i < j, in that order
    n = tree.n_particles
    a = np.repeat(np.arange(n), [len(nbrs) for nbrs in lists])
    b = np.concatenate(lists)
    i, j = np.divmod(np.unique(np.minimum(a, b) * n + np.maximum(a, b)), n)
    if exclude_types is not None:
        keep = ~(exclude_types[i] | exclude_types[j])
        i, j = i[keep], j[keep]
    pos = p.position
    dr, dv = pos[j] - pos[i], vel[j] - vel[i]
    t_star, d2 = closest_approach(dr, dv, dt)
    rsum = radii[i] + radii[j]
    hit = np.flatnonzero(d2 <= rsum * rsum)
    t_hit = t_star[hit, None]
    mid = pos[i[hit]] + vel[i[hit]] * t_hit + 0.5 * (dr[hit] + dv[hit] * t_hit)
    events = [
        CollisionEvent(i=int(i[h]), j=int(j[h]), time=float(t_star[h]),
                       distance=float(np.sqrt(d2[h])), position=mid[m])
        for m, h in enumerate(hit)
    ]
    return events, stats
