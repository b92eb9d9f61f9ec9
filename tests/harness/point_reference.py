"""Reference point queries: one point at a time, on a nearest-first stack.

These are the walkers ``repro.serve.kernels`` had before a batch of queries
became one seeded frontier walk (:func:`repro.apps.knn.knn_points`,
:func:`repro.apps.knn.range_points`), kept here as an oracle for them (not
a second product path): a tree walk that shares no code with the pair
frontier — its own prune, its own einsum distance.  It picks among ties at
the k-th place with ``argpartition``, so it vouches for the *distances* of
a kNN row and for the exact index set of a range query, not for which of
several equidistant particles is a neighbour (brute force does that).
"""

from __future__ import annotations

import numpy as np

from repro.geometry import point_box_distance_sq
from repro.trees import Tree

__all__ = ["reference_knn_point", "reference_range_point"]


def reference_knn_point(tree: Tree, point: np.ndarray, k: int) -> np.ndarray:
    """The k smallest squared distances from ``point``, ascending."""
    pos = tree.particles.position
    lo, hi, first, nkids = tree.box_lo, tree.box_hi, tree.first_child, tree.n_children
    best = np.full(k, np.inf)
    stack = [0]
    while stack:
        node = stack.pop()
        if float(point_box_distance_sq(lo[node], hi[node], point)) > best.max():
            continue
        if first[node] == -1:
            delta = pos[tree.pstart[node]:tree.pend[node]] - point
            both = np.concatenate([best, np.einsum("ij,ij->i", delta, delta)])
            best = both[np.argpartition(both, k - 1)[:k]]
        else:
            kids = np.arange(first[node], first[node] + nkids[node])
            kd2 = point_box_distance_sq(lo[kids], hi[kids], point)
            # push farthest first so the nearest child pops first
            stack.extend(int(kids[j]) for j in np.argsort(-kd2, kind="stable"))
    return np.sort(best)


def reference_range_point(tree: Tree, point: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the particles within ``radius`` of ``point``, ascending."""
    pos = tree.particles.position
    r2 = float(radius) * float(radius)
    hits = [np.empty(0, dtype=np.int64)]
    stack = [0]
    while stack:
        node = stack.pop()
        if float(point_box_distance_sq(tree.box_lo[node], tree.box_hi[node], point)) > r2:
            continue
        if tree.first_child[node] == -1:
            cand = np.arange(tree.pstart[node], tree.pend[node])
            delta = pos[cand] - point
            hits.append(cand[np.einsum("ij,ij->i", delta, delta) <= r2])
        else:
            stack.extend(range(tree.first_child[node],
                               tree.first_child[node] + tree.n_children[node]))
    return np.sort(np.concatenate(hits))
