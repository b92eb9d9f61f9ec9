"""Periodic-replica Barnes-Hut gravity."""

import itertools

import numpy as np
import pytest

from repro.apps.gravity import (
    compute_gravity,
    compute_gravity_periodic,
    minimum_image,
)
from repro.apps.gravity import compute_centroid_arrays
from repro.apps.gravity import pairwise_accel, pairwise_potential
from repro.apps.gravity.periodic import _ShiftedGravityVisitor
from repro.core import get_traverser, top_down_engines
from repro.particles import ParticleSet, uniform_cube
from repro.trees import build_tree


class TestMinimumImage:
    def test_wraps_components(self):
        d = minimum_image(np.array([[0.9, -0.6, 0.2]]), 1.0)
        assert np.allclose(d, [[-0.1, 0.4, 0.2]])

    def test_identity_inside_half_box(self):
        d = np.array([[0.3, -0.4, 0.1]])
        assert np.allclose(minimum_image(d, 1.0), d)

    def test_scales_with_box(self):
        d = minimum_image(np.array([[7.0, 0, 0]]), 10.0)
        assert np.allclose(d, [[-3.0, 0, 0]])


class TestPeriodicGravity:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 1, (120, 3))
        return ParticleSet(pos, mass=np.full(120, 1 / 120))

    def _brute_replica(self, p, n_images, softening):
        acc = np.zeros((len(p), 3))
        for shift in itertools.product(range(-n_images, n_images + 1), repeat=3):
            acc += pairwise_accel(
                p.position, p.position + np.asarray(shift, float), p.mass,
                1.0, softening,
            )
        return acc

    def test_matches_brute_replica_sum(self, cloud):
        res = compute_gravity_periodic(
            cloud, 1.0, theta=0.3, softening=0.02, n_images=1,
            subtract_mean_field=False,
        )
        exact = self._brute_replica(cloud, 1, 0.02)
        rel = np.linalg.norm(res.accel - exact, axis=1) / np.maximum(
            np.linalg.norm(exact, axis=1), 1e-12
        )
        assert np.median(rel) < 5e-3

    def test_zero_images_equals_open_boundaries(self, cloud):
        per = compute_gravity_periodic(
            cloud, 1.0, theta=0.5, softening=0.02, n_images=0,
            subtract_mean_field=False,
        )
        open_res = compute_gravity(cloud, theta=0.5, softening=0.02)
        assert np.allclose(per.accel, open_res.accel, rtol=1e-9)
        assert per.n_image_cells == 1

    def test_mean_field_subtraction(self, cloud):
        res = compute_gravity_periodic(
            cloud, 1.0, theta=0.5, softening=0.02, n_images=1,
            subtract_mean_field=True,
        )
        assert np.allclose(res.accel.mean(axis=0), 0.0, atol=1e-12)

    def test_translational_invariance(self):
        """Shifting all particles by a lattice vector leaves the periodic
        forces unchanged (after consistent wrapping)."""
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 1, (80, 3))
        p1 = ParticleSet(pos, mass=np.full(80, 1 / 80))
        p2 = ParticleSet(pos + np.array([1.0, 0, 0]), mass=np.full(80, 1 / 80))
        a1 = compute_gravity_periodic(p1, 1.0, theta=0.3, softening=0.05,
                                      subtract_mean_field=False).accel
        a2 = compute_gravity_periodic(p2, 1.0, theta=0.3, softening=0.05,
                                      subtract_mean_field=False).accel
        assert np.allclose(a1, a2, rtol=1e-6, atol=1e-9)

    def test_engine_equivalence(self, cloud):
        a = compute_gravity_periodic(cloud, 1.0, theta=0.5, softening=0.05,
                                     traverser="transposed").accel
        b = compute_gravity_periodic(cloud, 1.0, theta=0.5, softening=0.05,
                                     traverser="per-bucket").accel
        assert np.allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("n_images", [0, 1])
    def test_every_top_down_engine_sees_the_image_offset(self, n_images):
        """Every registered top-down engine is a schedule over the shifted
        visitor's pair hooks, whose one shift is ``_pair_frame``; all of them
        must apply the image offset: same interaction set, same forces.
        (When each ordering had its own hook family, one copy forgot it: 11x
        the pp interactions and a relative error of 23.)"""
        from tests.harness.differential import INTERACTION_KEYS

        particles = uniform_cube(600, seed=4)
        runs = {
            engine: compute_gravity_periodic(
                particles.copy(), 1.0, theta=0.6, softening=0.01,
                n_images=n_images, traverser=engine)
            for engine in top_down_engines()
        }
        assert {"batched", "transposed", "per-bucket"} <= set(runs)
        ref = runs["transposed"]
        scale = np.abs(ref.accel).max()
        for engine, res in runs.items():
            counts = res.stats.as_dict()
            assert {k: counts[k] for k in INTERACTION_KEYS} == \
                {k: ref.stats.as_dict()[k] for k in INTERACTION_KEYS}, engine
            assert np.allclose(res.accel, ref.accel, rtol=1e-9, atol=1e-12 * scale), engine

    def test_shifted_pair_hooks_match_the_batch_hooks_with_potential(self):
        """``_pair_frame`` is the only shift: under it the transposed
        schedule (one source a call — what the ``*_batch`` hooks used to see)
        and the batched one agree to rounding, and both are the direct sum
        over the translated sources, potential included."""
        tree = build_tree(uniform_cube(400, seed=6), tree_type="oct", bucket_size=12)
        arrays = compute_centroid_arrays(tree, theta=0.6)
        offset = np.array([1.0, 0.0, -1.0])
        out = {}
        for engine in ("transposed", "batched"):
            visitor = _ShiftedGravityVisitor(tree, arrays, softening=0.01,
                                             with_potential=True, offset=offset)
            get_traverser(engine).traverse(tree, visitor)
            out[engine] = visitor
        assert np.abs(out["transposed"].potential).min() > 0
        np.testing.assert_allclose(out["batched"].accel, out["transposed"].accel,
                                   rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(out["batched"].potential, out["transposed"].potential,
                                   rtol=1e-12)
        pos, mass = tree.particles.position, tree.particles.mass
        exact = pairwise_accel(pos, pos + offset, mass, 1.0, 0.01)
        rel = np.linalg.norm(out["batched"].accel - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert np.median(rel) < 5e-3
        np.testing.assert_allclose(out["batched"].potential,
                                   pairwise_potential(pos, pos + offset, mass, 1.0, 0.01),
                                   rtol=5e-3)

    def test_validation(self, cloud):
        with pytest.raises(ValueError):
            compute_gravity_periodic(cloud, 0.0)
        with pytest.raises(ValueError):
            compute_gravity_periodic(cloud, 1.0, n_images=-1)

    def test_image_cell_count(self, cloud):
        res = compute_gravity_periodic(cloud, 1.0, n_images=1, theta=0.7,
                                       softening=0.05)
        assert res.n_image_cells == 27
