"""Reference collision detector: the ball-search candidate path.

``reference_collisions`` is :func:`repro.apps.collision.detect_collisions`
as it was before the detector ran its own pruning rule: every particle
searches a ball of radius ``r_i + r_max + v_rel_max * dt`` (``v_rel_max``
twice the largest deviation from the mean velocity), the neighbour lists
are turned back into pairs and ``np.unique`` keeps each unordered pair
once.  The exact refinement after it is the product's, so the two must
report the same events in bytes.
"""

from __future__ import annotations

import numpy as np

from repro.apps.collision import CollisionEvent, closest_approach
from repro.apps.knn import ball_search

__all__ = ["reference_collisions"]


def reference_collisions(tree, dt, radius_field="radius", v_rel_max=None,
                         exclude_types=None):
    """The ball-search collision detector; returns ``(events, stats)``."""
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

