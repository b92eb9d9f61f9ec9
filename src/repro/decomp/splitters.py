"""Decomposition types: assigning particles to Partitions.

Each decomposer implements ``find_splitters`` → ``assign``: the paper's
``findSplitters()`` interface.  Built-ins:

* :class:`SfcDecomposer` — map particles to the Morton space-filling curve
  and slice the curve into ranges uniform in (weighted) particle count
  (Warren & Salmon 1993).  Balances load well but disagrees with non-octree
  trees.
* :class:`OctDecomposer` — breadth-first octree build until there are
  enough nodes, then octree leaves are packed into partitions.  Consistent
  with octrees but can balance poorly for clustered/flat data.
* :class:`LongestDimDecomposer` — recursive orthogonal bisection, always
  cutting the longest dimension at the weighted median (the disk-friendly
  decomposition of paper §IV-B).

Custom decompositions register via :func:`register_decomposer`.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..geometry import MORTON_BITS, bounding_box, morton_keys
from ..particles import ParticleSet

__all__ = [
    "Decomposer",
    "SfcDecomposer",
    "HilbertDecomposer",
    "OctDecomposer",
    "LongestDimDecomposer",
    "register_decomposer",
    "get_decomposer",
]


class Decomposer:
    """Assigns each particle a partition id in ``[0, n_parts)``."""

    name: str = "abstract"

    def assign(
        self,
        particles: ParticleSet,
        n_parts: int,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return (N,) int array of partition ids.

        ``weights`` are per-particle load estimates (defaults to uniform);
        decomposers aim for equal summed weight per partition.
        """
        raise NotImplementedError

    @staticmethod
    def _check(n_parts: int) -> None:
        if n_parts < 1:
            raise ValueError(f"n_parts must be >= 1, got {n_parts}")


def _weighted_contiguous_slices(order: np.ndarray, weights: np.ndarray, n_parts: int) -> np.ndarray:
    """Cut an ordering of particles into ``n_parts`` contiguous slices of
    near-equal total weight; returns per-particle part ids."""
    w = weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    # Boundaries at equal weight quantiles.
    targets = total * (np.arange(1, n_parts) / n_parts)
    cuts = np.searchsorted(cum, targets, side="left")
    part_along_curve = np.zeros(len(order), dtype=np.int64)
    # np.add.at accumulates on repeated cut positions (possible when several
    # quantile boundaries land in one heavy particle's slot).
    np.add.at(part_along_curve, np.minimum(cuts, len(order) - 1), 1)
    part_along_curve = np.cumsum(part_along_curve)
    # A cut landing on index 0 would shift everything; renormalise to [0, n).
    part_along_curve = np.minimum(part_along_curve, n_parts - 1)
    out = np.empty(len(order), dtype=np.int64)
    out[order] = part_along_curve
    return out


class SfcDecomposer(Decomposer):
    """Space-filling-curve decomposition: weighted equal slices of the
    Morton curve."""

    name = "sfc"

    def assign(self, particles, n_parts, weights=None):
        self._check(n_parts)
        n = len(particles)
        weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        box = particles.bounding_box().cubified()
        keys = morton_keys(particles.position, box)
        order = np.argsort(keys, kind="stable")
        return _weighted_contiguous_slices(order, weights, n_parts)


class HilbertDecomposer(Decomposer):
    """Hilbert-curve decomposition: like SFC/Morton but along the Hilbert
    curve, whose slices are face-connected and therefore have smaller
    surface area — fewer split buckets and less boundary communication
    (`bench_ablation_sfc_curves.py` quantifies the difference)."""

    name = "hilbert"

    def assign(self, particles, n_parts, weights=None):
        from ..geometry.hilbert import hilbert_keys

        self._check(n_parts)
        n = len(particles)
        weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        box = particles.bounding_box().cubified()
        keys = hilbert_keys(particles.position, box)
        order = np.argsort(keys, kind="stable")
        return _weighted_contiguous_slices(order, weights, n_parts)


class OctDecomposer(Decomposer):
    """Octree decomposition: BFS-split the heaviest octree node until there
    are at least ``oversample * n_parts`` leaves, then greedily pack leaves
    (in Morton order) into partitions of near-equal weight.

    The packing keeps each partition a set of whole octree nodes — the
    property that makes this decomposition consistent with octrees but
    unable to split hot spots finely (the imbalance Fig 13 shows on disks).
    """

    name = "oct"

    def __init__(self, oversample: int = 4, max_level: int = MORTON_BITS):
        self.oversample = oversample
        self.max_level = max_level

    def assign(self, particles, n_parts, weights=None):
        self._check(n_parts)
        n = len(particles)
        weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        box = particles.bounding_box().cubified()
        keys = morton_keys(particles.position, box)
        order = np.argsort(keys, kind="stable")
        sorted_w = weights[order]
        cum_w = np.concatenate([[0.0], np.cumsum(sorted_w)])
        sorted_keys = keys[order]

        # Heap of candidate octree nodes: (-weight, level, prefix, start, end).
        def node_weight(s: int, e: int) -> float:
            return float(cum_w[e] - cum_w[s])

        heap = [(-node_weight(0, n), 0, 1, 0, n)]  # root: sentinel prefix 1
        target_leaves = max(self.oversample * n_parts, n_parts)
        while len(heap) < target_leaves:
            negw, lvl, prefix, s, e = heapq.heappop(heap)
            if e - s <= 1 or lvl >= self.max_level:
                heapq.heappush(heap, (negw, lvl, prefix, s, e))
                break  # heaviest node cannot be split further
            shift = 3 * (MORTON_BITS - (lvl + 1))
            base = prefix << 3
            sentinel = 1 << (3 * (lvl + 1))
            bounds = np.searchsorted(
                sorted_keys[s:e],
                np.array([((base + c) - sentinel) << shift for c in range(9)], dtype=np.uint64),
            ) + s
            pushed = 0
            for c in range(8):
                cs, ce = int(bounds[c]), int(bounds[c + 1])
                if cs == ce:
                    continue
                heapq.heappush(heap, (-node_weight(cs, ce), lvl + 1, base + c, cs, ce))
                pushed += 1
            if pushed == 0:  # degenerate: all particles identical keys
                heapq.heappush(heap, (negw, lvl, prefix, s, e))
                break

        # Pack Morton-ordered leaves into partitions of near-equal weight.
        leaves = sorted(heap, key=lambda item: item[2] << (3 * (self.max_level - item[1])))
        negw, _, _, start, end = (np.array(column) for column in zip(*leaves))
        leaf_part = _weighted_contiguous_slices(np.arange(len(leaves)), -negw, n_parts)
        out = np.empty(n, dtype=np.int64)
        out[order] = np.repeat(leaf_part, end - start)
        return out


class LongestDimDecomposer(Decomposer):
    """Orthogonal recursive bisection, always cutting the longest axis at
    the weighted median (paper §IV-B's disk decomposition)."""

    name = "longest"

    def assign(self, particles, n_parts, weights=None):
        self._check(n_parts)
        n = len(particles)
        weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        pos = particles.position
        out = np.zeros(n, dtype=np.int64)
        # Work queue: (particle index array, bounding box, parts to create,
        # first part id).
        queue: list[tuple[np.ndarray, int, int]] = [(np.arange(n), n_parts, 0)]
        while queue:
            idx, parts, base = queue.pop()
            if parts <= 1 or len(idx) == 0:
                out[idx] = base
                continue
            box = bounding_box(pos[idx])
            axis = box.longest_dim
            left_parts = parts // 2
            frac = left_parts / parts
            coords = pos[idx, axis]
            order = np.argsort(coords, kind="stable")
            w = weights[idx][order]
            cum = np.cumsum(w)
            cut = int(np.searchsorted(cum, frac * cum[-1], side="left")) + 1
            cut = min(max(cut, 1), len(idx) - 1)
            queue.append((idx[order[:cut]], left_parts, base))
            queue.append((idx[order[cut:]], parts - left_parts, base + left_parts))
        return out


_DECOMPOSERS: dict[str, type[Decomposer] | Decomposer] = {}


def register_decomposer(name: str, decomposer: type[Decomposer] | Decomposer) -> None:
    """Register a custom decomposition type (paper §IV-B)."""
    _DECOMPOSERS[name] = decomposer


def get_decomposer(name: str) -> Decomposer:
    entry = _DECOMPOSERS.get(name)
    if entry is None:
        raise ValueError(f"unknown decomposition type {name!r}; available: {sorted(_DECOMPOSERS)}")
    return entry() if isinstance(entry, type) else entry


register_decomposer(SfcDecomposer.name, SfcDecomposer)
register_decomposer(HilbertDecomposer.name, HilbertDecomposer)
register_decomposer(OctDecomposer.name, OctDecomposer)
register_decomposer(LongestDimDecomposer.name, LongestDimDecomposer)
