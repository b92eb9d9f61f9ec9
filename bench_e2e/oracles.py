"""Correctness oracles: brute-force references on seeded samples.

Every function returns the number of checks it made and a list of miss
descriptions; a miss is counted as a failed operation by the caller and
sets the exit code.  Nothing here is dropped silently.
"""

from __future__ import annotations

import numpy as np

from repro.apps.gravity import acceleration_error, pairwise_accel
from repro.trees.validate import check_tree_invariants

#: direct-sum gates on the relative acceleration error of the sample.
#: Over 43 surveyed seeds unmodified HEAD reads median <= 2.3e-3 and
#: p99 <= 2.4e-2 on clustered_clumps(20_000) at theta = 0.7.
GRAVITY_MEDIAN_MAX = 5e-3
GRAVITY_P99_MAX = 5e-2

TREE_ARRAYS = ("parent", "first_child", "n_children", "pstart", "pend",
               "box_lo", "box_hi", "level", "key")


def sample_indices(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7919])
    return np.sort(rng.choice(n, size=min(k, n), replace=False))


def check_gravity(pos, mass, accel, sample, G, softening):
    """``accel[sample]`` against the direct sum over all particles (chunked:
    the (nt, ns, 3) temporary stays small).  -> (median, p99, misses) of
    the relative error."""
    exact = np.concatenate([
        pairwise_accel(pos[sample[s:s + 64]], pos, mass, G, softening)
        for s in range(0, len(sample), 64)])
    err = acceleration_error(accel[sample], exact)
    med, p99 = err["median"], err["p99"]
    misses = []
    if not med <= GRAVITY_MEDIAN_MAX:       # also catches NaN
        misses.append(f"gravity median error {med:.3e} > {GRAVITY_MEDIAN_MAX}")
    if not p99 <= GRAVITY_P99_MAX:
        misses.append(f"gravity p99 error {p99:.3e} > {GRAVITY_P99_MAX}")
    return med, p99, misses


def brute_knn(pos, point, k, exclude=None):
    """k nearest rows of ``pos`` to ``point`` in canonical (dist, index)
    order -> (index, dist_sq)."""
    delta = pos - point
    d2 = np.einsum("ij,ij->i", delta, delta)
    if exclude is not None:
        d2[exclude] = np.inf
    order = np.lexsort((np.arange(len(pos)), d2))[:k]
    return order, d2[order]


def check_knn(pos, sample, nbr_index, nbr_dist_sq):
    """Neighbour lists of the sampled particles against brute force:
    exact index set in (dist, index) order.  ``pos`` and the neighbour
    indices share one ordering.  -> list of misses (one per particle)."""
    misses = []
    k = nbr_index.shape[1]
    for i in sample:
        want_idx, want_d2 = brute_knn(pos, pos[i], k, exclude=i)
        order = np.lexsort((nbr_index[i], nbr_dist_sq[i]))
        if not (np.array_equal(nbr_index[i][order], want_idx)
                and np.allclose(nbr_dist_sq[i][order], want_d2, rtol=1e-12, atol=0)):
            misses.append(f"kNN list of particle {int(i)} differs from brute force")
    return misses


def check_serve_reply(pos, mass, query: dict, result: dict, max_results: int):
    """One ``ok`` reply against brute force over the resident (tree-order)
    arrays.  -> miss description or None."""
    point = np.asarray(query["point"], dtype=np.float64)
    if query["op"] == "range":
        delta = pos - point
        inside = np.flatnonzero(
            np.einsum("ij,ij->i", delta, delta) <= query["radius"] ** 2)
        if result.get("count") != len(inside):
            return f"range count {result.get('count')} != {len(inside)}"
        if result.get("idx") != [int(i) for i in inside[:max_results]]:
            return "range idx differs from brute force"
        return None
    idx, d2 = brute_knn(pos, point, query["k"])
    if query["op"] == "knn":
        if result.get("idx") != [int(i) for i in idx]:
            return "knn idx differs from brute force"
        if not np.allclose(result.get("dist"), np.sqrt(d2), rtol=1e-12, atol=0):
            return "knn dist differs from brute force"
        return None
    h = float(np.sqrt(d2[-1]))
    rho = float(mass[idx].sum()) / ((4.0 / 3.0) * np.pi * max(h, 1e-300) ** 3)
    if not np.allclose([result.get("rho"), result.get("h")], [rho, h], rtol=1e-9, atol=0):
        return "density differs from brute force"
    return None


def tree_bytes(tree) -> bytes:
    return b"".join(np.ascontiguousarray(getattr(tree, a)).tobytes()
                    for a in TREE_ARRAYS) + tree.particles.orig_index.tobytes()


def check_trees(trees: dict, linear):
    """``check_tree_invariants`` on every built tree, plus linear ==
    recursive byte identity for the octree.  -> (checks, misses)."""
    misses = []
    for name, tree in trees.items():
        try:
            check_tree_invariants(tree)
        except AssertionError as exc:
            misses.append(f"{name} tree invariant: {exc}")
    if tree_bytes(linear) != tree_bytes(trees["oct"]):
        misses.append("linear octree is not byte-identical to the recursive one")
    return len(trees) + 1, misses
