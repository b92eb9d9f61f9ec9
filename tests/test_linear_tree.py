"""Equivalence suite for the octree builder (vectorised, linear; PR 10).

The contract under test is stronger than "same physics": the product
builder (``build_tree`` -> :func:`repro.trees.linear.build_octree_linear`)
must produce a tree **byte-identical** to the node-at-a-time reference loop
in ``tests/harness/oct_reference.py`` — same node numbering, same SoA arrays
bit-for-bit, same particle permutation.  That numbering is what every
downstream consumer (engines, exec backends, checkpoints, the serve layer)
and every recorded digest assumes.

Hypothesis drives random point clouds; the deterministic cases cover the
degenerate geometry the level loop has to get right (duplicates at the
depth cap, single particle, collinear/coplanar sets, extreme coordinate
scales).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.gravity.centroid import compute_centroid_arrays
from repro.particles import ParticleSet, clustered_clumps, uniform_cube
from repro.trees import TreeBuildConfig, build_tree, check_tree_invariants

from tests.harness.oct_reference import build_octree

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

TOPOLOGY_ARRAYS = (
    "parent", "first_child", "n_children", "pstart", "pend", "level", "key",
)
BOX_ARRAYS = ("box_lo", "box_hi")


def particles_from(pos: np.ndarray) -> ParticleSet:
    pos = np.asarray(pos, dtype=np.float64)
    return ParticleSet(position=pos, mass=np.ones(len(pos)))


def assert_trees_identical(rec, lin):
    """Byte-identical trees: topology, boxes, and particle permutation."""
    assert rec.n_nodes == lin.n_nodes
    for name in TOPOLOGY_ARRAYS:
        a, b = getattr(rec, name), getattr(lin, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), f"{name} differs"
    for name in BOX_ARRAYS:
        a, b = getattr(rec, name), getattr(lin, name)
        assert a.tobytes() == b.tobytes(), f"{name} not bit-identical"
    assert np.array_equal(rec.particles.orig_index, lin.particles.orig_index), (
        "particle permutation differs"
    )
    assert rec.particles.position.tobytes() == lin.particles.position.tobytes()


def build_both(particles, **cfg):
    config = TreeBuildConfig(tree_type="oct", **cfg)
    rec = build_octree(particles.copy(), config)
    lin = build_tree(particles.copy(), config)
    return rec, lin


# -- hypothesis: random clouds across bucket sizes ---------------------------

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def point_clouds(min_n=1, max_n=200):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(3)),
        elements=finite_coords,
    )


class TestLinearEqualsRecursiveProperty:
    @given(pos=point_clouds(), bucket=st.sampled_from([1, 2, 4, 16, 64]))
    @settings(max_examples=60, **COMMON)
    def test_byte_identical(self, pos, bucket):
        rec, lin = build_both(particles_from(pos), bucket_size=bucket)
        assert_trees_identical(rec, lin)

    @given(pos=point_clouds(min_n=2), bucket=st.sampled_from([1, 4, 16]))
    @settings(max_examples=30, **COMMON)
    def test_invariants_and_leaf_membership(self, pos, bucket):
        rec, lin = build_both(particles_from(pos), bucket_size=bucket)
        check_tree_invariants(lin)
        # Leaf membership: each leaf's particle set (by original index)
        # matches the reference tree's leaf with the same key.
        rec_leaves = {
            int(rec.key[i]): frozenset(
                rec.particles.orig_index[rec.pstart[i]:rec.pend[i]].tolist()
            )
            for i in rec.leaf_indices
        }
        lin_leaves = {
            int(lin.key[i]): frozenset(
                lin.particles.orig_index[lin.pstart[i]:lin.pend[i]].tolist()
            )
            for i in lin.leaf_indices
        }
        assert rec_leaves == lin_leaves

    @given(
        pos=point_clouds(min_n=2, max_n=120),
        dup_from=st.integers(0, 1_000_000),
        repeats=st.integers(2, 10),
    )
    @settings(max_examples=30, **COMMON)
    def test_duplicate_points(self, pos, dup_from, repeats):
        # Clone one point many times: duplicate Morton keys force the
        # single-child chain down to the depth cap.
        row = pos[dup_from % len(pos)]
        pos = np.concatenate([pos, np.tile(row, (repeats, 1))])
        rec, lin = build_both(particles_from(pos), bucket_size=2, max_depth=12)
        assert_trees_identical(rec, lin)

    @given(pos=point_clouds(min_n=8, max_n=150), depth=st.integers(1, 6))
    @settings(max_examples=20, **COMMON)
    def test_depth_cap(self, pos, depth):
        rec, lin = build_both(particles_from(pos), bucket_size=1, max_depth=depth)
        assert_trees_identical(rec, lin)


# -- deterministic degenerate geometry ---------------------------------------

class TestDegenerateInputs:
    def test_single_particle(self):
        rec, lin = build_both(particles_from([[0.3, 0.4, 0.5]]), bucket_size=16)
        assert_trees_identical(rec, lin)
        assert lin.n_nodes == 1

    def test_all_identical_points(self):
        pos = np.tile([[0.25, 0.75, 0.5]], (40, 1))
        rec, lin = build_both(particles_from(pos), bucket_size=4, max_depth=10)
        assert_trees_identical(rec, lin)

    def test_collinear(self):
        t = np.linspace(0.0, 1.0, 97)
        pos = np.stack([t, 2.0 * t, np.full_like(t, 0.5)], axis=1)
        rec, lin = build_both(particles_from(pos), bucket_size=4)
        assert_trees_identical(rec, lin)

    def test_coplanar(self):
        rng = np.random.default_rng(5)
        xy = rng.random((200, 2))
        pos = np.concatenate([xy, np.full((200, 1), 0.125)], axis=1)
        rec, lin = build_both(particles_from(pos), bucket_size=8)
        assert_trees_identical(rec, lin)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e12])
    def test_extreme_coordinate_ranges(self, scale):
        rng = np.random.default_rng(11)
        pos = (rng.random((300, 3)) - 0.5) * scale
        rec, lin = build_both(particles_from(pos), bucket_size=8)
        assert_trees_identical(rec, lin)

    @pytest.mark.parametrize("bucket", [1, 3, 16, 64, 1024])
    def test_bucket_sweep_clustered(self, bucket):
        p = clustered_clumps(2000, seed=2)
        rec, lin = build_both(p, bucket_size=bucket)
        assert_trees_identical(rec, lin)


# -- summaries + dispatch -----------------------------------------------------

class TestSummariesAndDispatch:
    def test_identical_summaries(self):
        p = uniform_cube(3000, seed=9)
        rec, lin = build_both(p, bucket_size=16)
        ar = compute_centroid_arrays(rec, theta=0.7, with_quadrupole=True)
        al = compute_centroid_arrays(lin, theta=0.7, with_quadrupole=True)
        assert ar.centroid.tobytes() == al.centroid.tobytes()
        assert ar.mass.tobytes() == al.mass.tobytes()
        assert ar.open_radius_sq.tobytes() == al.open_radius_sq.tobytes()
        assert ar.quad.tobytes() == al.quad.tobytes()

    def test_builder_validation(self):
        """``builder`` has one value (the spelling ``bench_e2e/`` uses)."""
        assert TreeBuildConfig(builder="linear") == TreeBuildConfig()
        for name in ("magic", "recursive"):
            with pytest.raises(ValueError, match=f"^builder must be 'linear', got '{name}'$"):
                build_tree(uniform_cube(10, seed=1), builder=name)


class TestOracleComparisonHasTeeth:
    """``assert_trees_identical`` is the gate the whole suite above leans on:
    one node of the product tree corrupted in any compared array, or two
    particles swapped, must fail it."""

    def test_one_node_corruption_is_caught(self):
        particles = clustered_clumps(600, seed=8)
        rec, lin = build_both(particles, bucket_size=8)
        assert_trees_identical(rec, lin)
        node = lin.n_nodes // 2
        for name in TOPOLOGY_ARRAYS + BOX_ARRAYS:
            _, lin = build_both(particles, bucket_size=8)
            array = getattr(lin, name)
            if name in BOX_ARRAYS:
                array[node, 1] = np.nextafter(array[node, 1], np.inf)   # one ulp
            else:
                array[node] += array.dtype.type(1)
            with pytest.raises(AssertionError, match=name):
                assert_trees_identical(rec, lin)
        _, lin = build_both(particles, bucket_size=8)
        lin.particles.orig_index[[0, 1]] = lin.particles.orig_index[[1, 0]]
        with pytest.raises(AssertionError, match="permutation"):
            assert_trees_identical(rec, lin)
