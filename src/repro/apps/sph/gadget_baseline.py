"""The Gadget-2-style smoothing-length iteration (the Fig 11 baseline).

Gadget-2 finds each particle's smoothing length by *converging on it*:
guess h, run a fixed-ball search, count neighbours, adjust h (bisection)
and repeat until the count lands in the accepted window.  Every adjustment
round is a full extra traversal over the still-unconverged particles —
"more parallelizable but less efficient" than the single kNN pass.

The implementation counts the real traversal work of every round (the
accumulated :class:`~repro.core.TraversalStats`), which is what the Fig 11
scaling bench feeds to the DES.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core import TraversalStats
from ...trees import Tree
from ..knn.balls import ball_search

__all__ = ["GadgetSmoothingResult", "gadget_style_density"]


@dataclass
class GadgetSmoothingResult:
    """Converged smoothing lengths/densities plus the work it took."""

    h: np.ndarray
    density: np.ndarray
    n_rounds: int
    converged: np.ndarray  # (N,) bool
    stats: TraversalStats = field(default_factory=TraversalStats)
    stats_per_round: list[TraversalStats] = field(default_factory=list)


def gadget_style_density(
    tree: Tree,
    k: int = 32,
    tol: int = 2,
    max_rounds: int = 32,
    h0: np.ndarray | None = None,
) -> GadgetSmoothingResult:
    """Converge h so each particle has ``k ± tol`` neighbours, then density.

    Bisection with geometric bracket expansion; all unconverged particles
    share each round's traversal (buckets with any unconverged particle are
    re-searched), mirroring how Gadget batches its neighbour iterations.
    """
    n = tree.n_particles
    pos = tree.particles.position
    if h0 is None:
        # Initial guess from the mean interparticle spacing.
        vol = float(np.prod(np.maximum(tree.box_hi[0] - tree.box_lo[0], 1e-30)))
        h = np.full(n, 1.3 * (vol / n) ** (1.0 / 3.0) * k ** (1.0 / 3.0))
    else:
        h = np.asarray(h0, dtype=np.float64).copy()

    lo = np.zeros(n)
    hi = np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    last_neighbors: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    total = TraversalStats()
    per_round: list[TraversalStats] = []
    rounds = 0

    for _ in range(max_rounds):
        active = ~converged
        if not np.any(active):
            break
        rounds += 1
        # Ball-search only buckets containing unconverged particles.
        radii = np.where(active, h, 0.0)
        target_leaves = np.unique(tree.leaf_of_particle()[active])
        lists, stats = ball_search(tree, radii, targets=target_leaves)
        per_round.append(stats)
        total.merge(stats)
        for i in np.flatnonzero(active):
            nbrs = lists[i]
            counts[i] = len(nbrs)
            last_neighbors[i] = nbrs
            if abs(counts[i] - k) <= tol:
                converged[i] = True
            elif counts[i] > k:
                hi[i] = h[i]
                h[i] = 0.5 * (lo[i] + hi[i])
            else:
                lo[i] = h[i]
                h[i] = h[i] * 2.0 if np.isinf(hi[i]) else 0.5 * (lo[i] + hi[i])

    # Density from the final neighbour sets (kernel support = h).
    mass = tree.particles.mass
    rho = np.empty(n)
    from .kernels import cubic_spline_W

    for i in range(n):
        nbrs = last_neighbors[i]
        if len(nbrs):
            r = np.linalg.norm(pos[nbrs] - pos[i], axis=1)
            rho[i] = float(np.sum(mass[nbrs] * cubic_spline_W(r, h[i])))
        else:
            rho[i] = 0.0
        rho[i] += mass[i] * float(cubic_spline_W(np.zeros(1), np.array([h[i]]))[0])

    return GadgetSmoothingResult(
        h=h,
        density=rho,
        n_rounds=rounds,
        converged=converged,
        stats=total,
        stats_per_round=per_round,
    )
