"""Collision detection between finite-radius particles.

Candidate pairs come from a self-join on the default top-down engine, as a
pruning rule plus a base case (Curtin et al., tree-independent dual-tree
algorithms): a source node is opened for a target bucket only when its box
can come within reach over the step, and a leaf pair emits each candidate
``(i, j)`` from the bucket holding the lower index.  The exact
closest-approach test on the linear trajectories of the step then decides
every event — the standard planetesimal-code treatment (cf. ChaNGa's
collision module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import Configuration, TraversalStats, get_traverser
from ...core.visitor import Visitor
from ...geometry.box import boxes_box_distance_sq
from ...trees import Tree
from ...trees.kernels import components, expand_pair_products, pair_dist_sq
from ...trees.linear import tight_bounds
from ..knn.knn import OPEN_SLACK

__all__ = ["CollisionEvent", "CollisionVisitor", "closest_approach", "detect_collisions"]


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


class CollisionVisitor(Visitor):
    """Every particle pair ``(i, j)``, ``i < j``, that the step's drift may
    bring within ``r_i + r_j``, as flat arrays (a superset of the events).

    Over the step ``|dr + dv t| >= |dr| - |dv| dt``.  A box distance bounds
    ``|dr|`` from below; each node's tight radius maximum and per-axis
    velocity range bound ``r_i + r_j`` and ``|dv|`` from above, and an
    ancestor's ranges contain its descendants'.  So a node pair farther
    apart than ``rmax_S + rmax_T + dt * |max(vhi_S - vlo_T, vhi_T - vlo_S)|``
    holds no collision.  A source whose particles all precede the target's
    holds only the other end of pairs that target's predecessors emit.
    """

    def __init__(self, tree: Tree, dt: float, radii: np.ndarray) -> None:
        self.dt = dt
        self._rmax = tight_bounds(tree, radii)[1]
        self._vlo, self._vhi = tight_bounds(tree, tree.particles.velocity)
        self._positions = components(tree.particles.position)
        self._pairs: list[tuple[np.ndarray, np.ndarray]] = [(np.empty(0, np.int64),) * 2]

    def _reach_sq(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        dv = np.maximum(self._vhi[sources] - self._vlo[targets],
                        self._vhi[targets] - self._vlo[sources])
        reach = (self._rmax[sources] + self._rmax[targets]
                 + self.dt * np.sqrt(np.einsum("ij,ij->i", dv, dv)))
        return reach * reach * OPEN_SLACK

    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        d2 = boxes_box_distance_sq(tree.box_lo[sources], tree.box_hi[sources],
                                   tree.box_lo[targets], tree.box_hi[targets])
        later = tree.pend[sources] > tree.pstart[targets]
        return later & (d2 <= self._reach_sq(sources, targets))

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        """A node out of reach, or holding only lower indices, adds nothing."""

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        ts, te = tree.pstart[targets], tree.pend[targets]
        ss, se = tree.pstart[sources], tree.pend[sources]
        t_rows, s_rows = expand_pair_products(ts, te, ss, se)
        reach_sq = np.repeat(self._reach_sq(sources, targets), (te - ts) * (se - ss))
        half = t_rows < s_rows
        t_rows, s_rows = t_rows[half], s_rows[half]
        near = pair_dist_sq(self._positions, t_rows, s_rows) <= reach_sq[half]
        self._pairs.append((t_rows[near], s_rows[near]))

    def pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The candidates as ``(i, j)`` arrays sorted by ``i * n + j``."""
        i, j = (np.concatenate(part) for part in zip(*self._pairs))
        return np.divmod(np.sort(i * n + j), n)


def detect_collisions(tree: Tree, dt: float, exclude_types: np.ndarray | None = None,
                      ) -> tuple[list[CollisionEvent], TraversalStats]:
    """Find all particle pairs that come within the sum of their radii
    during a step of length ``dt``; returns ``(events, stats)``, events in
    ``(i, j)`` order.

    ``exclude_types`` is a boolean mask of particles that take part in no
    event (e.g. the star and planet — they collide with nothing at these
    radii).
    """
    p = tree.particles
    radii = p.radius
    vel = p.velocity
    visitor = CollisionVisitor(tree, dt, radii)
    stats = get_traverser(Configuration.traverser).traverse(tree, visitor)
    i, j = visitor.pairs(tree.n_particles)
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
