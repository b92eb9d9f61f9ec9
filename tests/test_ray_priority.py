"""Priority-driven traversal and the ray-tracing app."""

import numpy as np
import pytest

from repro.apps.knn import brute_force_knn, knn_search
from repro.apps.ray import (
    brute_force_trace,
    ray_box_entry,
    ray_sphere_hit,
    trace_rays,
)
from repro.core import Visitor, get_traverser
from repro.particles import ParticleSet, clustered_clumps, uniform_cube
from repro.trees import build_tree


class TestPriorityTraverser:
    def test_registered(self):
        assert get_traverser("priority") is not None

    def test_requires_priority_method(self):
        tree = build_tree(uniform_cube(100, seed=0), tree_type="kd", bucket_size=8)

        class NoPriority(Visitor):
            def open(self, s, t):
                return True

            def node(self, s, t):
                pass

            leaf = node

        with pytest.raises(TypeError, match="priority"):
            get_traverser("priority").traverse(tree, NoPriority())

    def test_best_first_knn_exact(self):
        tree = build_tree(clustered_clumps(800, seed=1), tree_type="kd", bucket_size=8)
        res = knn_search(tree, k=6, traverser="priority")
        bf_d, _ = brute_force_knn(tree.particles.position, 6)
        assert np.allclose(res.dist_sq, bf_d)

    def test_expansion_order_is_by_priority(self):
        """Nodes must be expanded in non-decreasing priority when the
        priority function is static."""
        tree = build_tree(uniform_cube(300, seed=2), tree_type="kd", bucket_size=8)
        order: list[float] = []

        class Probe(Visitor):
            def priority(self, tree, source, target):
                return float(tree.level[source])

            def open(self, source, target):
                order.append(float(source.level))
                return True

            def leaf(self, source, target):
                pass

            def node(self, source, target):
                pass

        get_traverser("priority").traverse(tree, Probe(), tree.leaf_indices[:1])
        assert order == sorted(order)

    def test_done_short_circuits(self):
        tree = build_tree(uniform_cube(300, seed=3), tree_type="kd", bucket_size=8)

        class StopImmediately(Visitor):
            opens = 0

            def priority(self, tree, source, target):
                return 0.0

            def open(self, source, target):
                StopImmediately.opens += 1
                return True

            def leaf(self, source, target):
                pass

            node = leaf

            def done(self, target):
                return StopImmediately.opens >= 3

        stats = get_traverser("priority").traverse(
            tree, StopImmediately(), tree.leaf_indices[:1]
        )
        assert stats.nodes_visited <= 3


class TestRayGeometry:
    def test_box_entry_through(self):
        inv = 1.0 / np.array([1.0, 1e-30, 1e-30])
        t = ray_box_entry(np.array([-2.0, 0.5, 0.5]), inv, np.zeros(3), np.ones(3))
        assert t == pytest.approx(2.0)

    def test_box_entry_miss(self):
        with np.errstate(divide="ignore"):
            inv = 1.0 / np.array([1.0, 0.0, 0.0])
        t = ray_box_entry(np.array([-2.0, 5.0, 0.5]), inv, np.zeros(3), np.ones(3))
        assert t == np.inf

    def test_box_entry_inside_starts_at_zero(self):
        with np.errstate(divide="ignore"):
            inv = 1.0 / np.array([1.0, 0.0, 0.0])
        t = ray_box_entry(np.array([0.5, 0.5, 0.5]), inv, np.zeros(3), np.ones(3))
        assert t == 0.0

    def test_sphere_hit_head_on(self):
        t = ray_sphere_hit(
            np.zeros(3), np.array([1.0, 0, 0]),
            np.array([[5.0, 0, 0]]), np.array([1.0]),
        )
        assert t[0] == pytest.approx(4.0)

    def test_sphere_behind_ray_misses(self):
        t = ray_sphere_hit(
            np.zeros(3), np.array([1.0, 0, 0]),
            np.array([[-5.0, 0, 0]]), np.array([1.0]),
        )
        assert t[0] == np.inf

    def test_origin_inside_sphere(self):
        t = ray_sphere_hit(
            np.zeros(3), np.array([1.0, 0, 0]),
            np.array([[0.5, 0, 0]]), np.array([1.0]),
        )
        assert t[0] == pytest.approx(1.5)  # exit point


class TestTraceRays:
    @pytest.fixture(scope="class")
    def scene(self):
        rng = np.random.default_rng(7)
        p = uniform_cube(2000, seed=4)
        p.add_field("radius", rng.uniform(0.003, 0.012, 2000))
        tree = build_tree(p, tree_type="oct", bucket_size=16)
        origins = rng.uniform(-2.0, -1.5, (120, 3))
        dirs = rng.uniform(-0.4, 0.4, (120, 3)) - origins
        return tree, origins, dirs

    def test_matches_brute_force(self, scene):
        tree, origins, dirs = scene
        res = trace_rays(tree, origins, dirs)
        bf_hit, bf_t = brute_force_trace(
            tree.particles.position, tree.particles.radius, origins, dirs
        )
        assert np.array_equal(res.hit_index, bf_hit)
        finite = np.isfinite(bf_t)
        assert np.allclose(res.t_hit[finite], bf_t[finite])
        assert finite.sum() > 10  # the scene actually produces hits

    def test_pruning_is_effective(self, scene):
        tree, origins, dirs = scene
        res = trace_rays(tree, origins, dirs)
        assert res.spheres_tested < 0.2 * len(origins) * tree.n_particles

    def test_miss_everything(self, scene):
        tree, _, _ = scene
        res = trace_rays(tree, np.array([[10.0, 10, 10]]), np.array([[1.0, 0, 0]]))
        assert res.hit_index[0] == -1
        assert res.t_hit[0] == np.inf

    def test_zero_direction_rejected(self, scene):
        tree, _, _ = scene
        with pytest.raises(ValueError):
            trace_rays(tree, np.zeros((1, 3)), np.zeros((1, 3)))

    def test_explicit_radii(self):
        p = ParticleSet(np.array([[1.0, 0.0, 0.0]]))
        tree = build_tree(p, tree_type="kd", bucket_size=1)
        res = trace_rays(
            tree, np.zeros((1, 3)), np.array([[1.0, 0, 0]]), radii=np.array([0.25])
        )
        assert res.hit_index[0] == 0
        assert res.t_hit[0] == pytest.approx(0.75)
