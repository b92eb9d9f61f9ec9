"""Linear-octree build and batched-kernel benchmarks (PR 10 acceptance gate).

Five bars:

* ``build.recursive`` — the seed builder: node-at-a-time stack walk.
* ``build.linear_vs_recursive`` — both builders over the same particles;
  the payload records the speedup, and the setup asserts the trees are
  byte-identical before any timing happens (a fast build that builds the
  wrong tree must never produce a green benchmark).
* ``kernels.batched_vs_scalar`` — one gravity traversal through the
  batched engine (segmented frontier, flat kernels) vs the transposed
  per-node engine on the same tree; payload records both times and the
  interaction counts that prove the visit set matched.
* ``traverse.batched_gravity`` — the batched engine alone, for regression
  tracking of the kernel path itself.
* ``traverse.knn_updown`` — the round-synchronous up-and-down engine under
  the kNN visitor; sampled neighbour lists asserted equal to brute force
  (distance bits and ``(dist, index)`` order) before any timing.

Run ``python -m repro bench run --quick 'build.*' 'kernels.*' -o
BENCH_pr10.json`` and gate with ``repro bench compare``.
"""

import time

import numpy as np

from repro.apps.gravity import compute_centroid_arrays
from repro.apps.gravity.visitor import GravityVisitor
from repro.apps.knn import knn_search
from repro.core import get_traverser
from repro.particles import clustered_clumps, uniform_cube
from repro.perf import benchmark as perf_benchmark
from repro.trees import TreeBuildConfig, build_tree
from repro.trees.kernels import pair_dist_sq
from repro.trees.build_oct import build_octree
from repro.trees.linear import build_octree_linear


def _particles(quick):
    return clustered_clumps(8_000 if quick else 25_000, seed=17)


@perf_benchmark("build.recursive", group="build",
                description="seed octree builder (node-at-a-time stack walk)")
def bench_build_recursive(quick=False):
    p = _particles(quick)
    config = TreeBuildConfig(tree_type="oct", bucket_size=16)

    def run():
        tree = build_octree(p.copy(), config)
        return {"n_nodes": int(tree.n_nodes)}

    return run


@perf_benchmark("build.linear_vs_recursive", group="build",
                description="vectorised linear builder vs recursive on the "
                            "same particles (trees asserted byte-identical)")
def bench_build_linear_vs_recursive(quick=False):
    p = _particles(quick)
    config = TreeBuildConfig(tree_type="oct", bucket_size=16)

    # Equivalence gate before timing: a wrong tree must fail the bench.
    rec = build_octree(p.copy(), config)
    lin = build_octree_linear(p.copy(), config)
    for name in ("parent", "first_child", "n_children", "pstart", "pend",
                 "level", "key"):
        assert np.array_equal(getattr(rec, name), getattr(lin, name)), name
    assert rec.box_lo.tobytes() == lin.box_lo.tobytes()
    assert rec.box_hi.tobytes() == lin.box_hi.tobytes()

    def run():
        t0 = time.perf_counter()
        build_octree(p.copy(), config)
        t_rec = time.perf_counter() - t0
        t0 = time.perf_counter()
        tree = build_octree_linear(p.copy(), config)
        t_lin = time.perf_counter() - t0
        return {
            "recursive_s": t_rec,
            "linear_s": t_lin,
            "speedup": t_rec / t_lin,
            "n_nodes": int(tree.n_nodes),
        }

    return run


def _gravity_setup(quick):
    p = _particles(quick)
    tree = build_octree_linear(p, TreeBuildConfig(tree_type="oct", bucket_size=16))
    arrays = compute_centroid_arrays(tree, theta=0.7)
    return tree, arrays


@perf_benchmark("kernels.batched_vs_scalar", group="build",
                description="gravity traversal: batched frontier "
                            "kernels vs the per-node transposed engine")
def bench_kernels_batched_vs_scalar(quick=False):
    tree, arrays = _gravity_setup(quick)

    def run():
        t0 = time.perf_counter()
        vt = GravityVisitor(tree, arrays, softening=1e-3)
        st = get_traverser("transposed").traverse(tree, vt)
        t_scalar = time.perf_counter() - t0
        t0 = time.perf_counter()
        vb = GravityVisitor(tree, arrays, softening=1e-3)
        sb = get_traverser("batched").traverse(tree, vb)
        t_batched = time.perf_counter() - t0
        assert st.pp_interactions == sb.pp_interactions
        assert st.pn_interactions == sb.pn_interactions
        # per particle, not per component: a near-zero component of a large
        # acceleration carries the rounding of the large ones
        assert (np.linalg.norm(vt.accel - vb.accel, axis=1)
                <= 1e-12 * np.linalg.norm(vt.accel, axis=1)).all()
        return {
            "scalar_s": t_scalar,
            "batched_s": t_batched,
            "speedup": t_scalar / t_batched,
            "pp_interactions": int(st.pp_interactions),
        }

    return run


@perf_benchmark("traverse.batched_gravity", group="build",
                description="batched engine gravity traversal (kernel path "
                            "regression tracking)")
def bench_traverse_batched(quick=False):
    tree, arrays = _gravity_setup(quick)
    engine = get_traverser("batched")

    def run():
        v = GravityVisitor(tree, arrays, softening=1e-3)
        stats = engine.traverse(tree, v)
        return {"pp_interactions": int(stats.pp_interactions)}

    return run


@perf_benchmark("traverse.knn_updown", group="build",
                description="up-and-down engine kNN search, k=32 (asserted "
                            "equal to brute force before timing)")
def bench_traverse_knn_updown(quick=False):
    tree = build_tree(uniform_cube(3_000 if quick else 8_000, seed=17),
                      tree_type="oct", bucket_size=16)
    # Equivalence gate before timing, on 512 sampled rows (the all-pairs
    # matrix of the full-size run would not fit): the same distance kernel
    # and a stable sort by distance, i.e. (dist, index) order.
    found = knn_search(tree, 32)
    sample = np.random.default_rng(17).choice(tree.n_particles, 512, replace=False)
    d2 = pair_dist_sq(tree.particles.position, sample[:, None],
                      np.arange(tree.n_particles)[None, :])
    d2[np.arange(sample.size), sample] = np.inf
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :32]
    assert np.array_equal(found.index[sample], nearest)
    assert np.array_equal(found.dist_sq[sample], np.take_along_axis(d2, nearest, axis=1))

    def run():
        stats = knn_search(tree, 32).stats
        return {"pp_interactions": int(stats.pp_interactions),
                "opens": int(stats.opens)}

    return run
