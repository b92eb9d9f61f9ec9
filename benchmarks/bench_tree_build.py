"""Linear-octree build and batched-kernel benchmarks (PR 10 acceptance gate).

Four bars:

* ``build.linear`` — the octree builder; the setup asserts the tree is
  byte-identical to the node-at-a-time oracle's
  (``tests/harness/oct_reference.py``) before any timing happens (a fast
  build that builds the wrong tree must never produce a green benchmark).
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

import importlib.util
import pathlib
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
from repro.trees.linear import build_octree_linear


def _particles(quick):
    return clustered_clumps(8_000 if quick else 25_000, seed=17)


def _reference_build_octree():
    """The oracle builder, loaded by path: the registry imports this script
    from anywhere, and ``tests`` need not be a package on ``sys.path``."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tests/harness/oct_reference.py"
    spec = importlib.util.spec_from_file_location("_oct_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_octree


@perf_benchmark("build.linear", group="build",
                description="vectorised linear octree builder (tree asserted "
                            "byte-identical to the node-at-a-time oracle)")
def bench_build_linear(quick=False):
    p = _particles(quick)
    config = TreeBuildConfig(tree_type="oct", bucket_size=16)

    # Equivalence gate before timing: a wrong tree must fail the bench.
    ref = _reference_build_octree()(p.copy(), config)
    lin = build_octree_linear(p.copy(), config)
    for name in ("parent", "first_child", "n_children", "pstart", "pend",
                 "level", "key"):
        assert np.array_equal(getattr(ref, name), getattr(lin, name)), name
    assert ref.box_lo.tobytes() == lin.box_lo.tobytes()
    assert ref.box_hi.tobytes() == lin.box_hi.tobytes()
    assert np.array_equal(ref.particles.orig_index, lin.particles.orig_index)

    def run():
        tree = build_octree_linear(p.copy(), config)
        return {"n_nodes": int(tree.n_nodes)}

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
