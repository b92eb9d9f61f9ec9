"""ParticleSet container, generators, and snapshot I/O."""

import numpy as np
import pytest

from repro.particles import (
    DiskParams,
    ParticleSet,
    clustered_clumps,
    keplerian_disk,
    load_particles,
    plummer_sphere,
    save_particles,
    uniform_cube,
)
from repro.particles.generators import G_AU_MSUN_YR


class TestParticleSet:
    def test_defaults(self):
        p = ParticleSet(np.zeros((5, 3)))
        assert len(p) == 5
        assert np.array_equal(p.velocity, np.zeros((5, 3)))
        assert np.array_equal(p.mass, np.ones(5))
        assert np.array_equal(p.orig_index, np.arange(5))

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((5, 2)))

    def test_extra_fields(self):
        p = ParticleSet(np.zeros((4, 3)), radius=np.ones(4))
        assert p.has_field("radius")
        assert "radius" in p.field_names
        with pytest.raises(AttributeError):
            p.nonexistent_field

    def test_extra_field_wrong_length_raises(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((4, 3)), radius=np.ones(3))

    def test_add_field_reserved_name(self):
        p = ParticleSet(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            p.add_field("orig_index", np.zeros(2))

    def test_permuted_keeps_alignment(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(10, 3))
        mass = rng.uniform(1, 2, 10)
        p = ParticleSet(pos, mass=mass)
        order = rng.permutation(10)
        q = p.permuted(order)
        assert np.array_equal(q.position, pos[order])
        assert np.array_equal(q.mass, mass[order])
        assert np.array_equal(q.orig_index, order)

    def test_scatter_to_input_order(self):
        pos = np.arange(30, dtype=float).reshape(10, 3)
        p = ParticleSet(pos)
        order = np.random.default_rng(1).permutation(10)
        q = p.permuted(order)
        values = q.position[:, 0]  # some per-particle result in q's order
        back = q.scatter_to_input_order(values)
        assert np.array_equal(back, pos[:, 0])

    def test_double_permutation_scatter(self):
        """scatter_to_input_order undoes *all* accumulated permutations."""
        p = ParticleSet(np.arange(15, dtype=float).reshape(5, 3))
        rng = np.random.default_rng(2)
        q = p.permuted(rng.permutation(5)).permuted(rng.permutation(5))
        assert np.array_equal(
            q.scatter_to_input_order(q.position[:, 0]), p.position[:, 0]
        )

    def test_select_mask_and_index(self):
        p = ParticleSet(np.arange(12, dtype=float).reshape(4, 3))
        sub = p.select(np.array([True, False, True, False]))
        assert len(sub) == 2
        sub2 = p.select(np.array([2, 3]))
        assert np.array_equal(sub2.position, p.position[2:])

    def test_concatenate(self):
        a = ParticleSet(np.zeros((2, 3)))
        b = ParticleSet(np.ones((3, 3)))
        c = ParticleSet.concatenate([a, b])
        assert len(c) == 5

    def test_concatenate_field_mismatch(self):
        a = ParticleSet(np.zeros((2, 3)), radius=np.ones(2))
        b = ParticleSet(np.ones((3, 3)))
        with pytest.raises(ValueError):
            ParticleSet.concatenate([a, b])

    def test_copy_is_deep(self):
        p = ParticleSet(np.zeros((3, 3)))
        q = p.copy()
        q.position[0, 0] = 5.0
        assert p.position[0, 0] == 0.0

    def test_bounding_box_contains_all(self):
        p = uniform_cube(500, seed=1)
        box = p.bounding_box()
        assert np.all(p.position >= box.lo) and np.all(p.position <= box.hi)


class TestGenerators:
    def test_uniform_cube_bounds_and_mass(self):
        p = uniform_cube(1000, side=2.0, total_mass=5.0, seed=0)
        assert np.all(np.abs(p.position) <= 1.0)
        assert p.total_mass == pytest.approx(5.0)

    def test_determinism(self):
        a = uniform_cube(100, seed=9)
        b = uniform_cube(100, seed=9)
        assert np.array_equal(a.position, b.position)
        assert not np.array_equal(a.position, uniform_cube(100, seed=10).position)

    def test_plummer_half_mass_radius(self):
        """Plummer half-mass radius is ~1.3 a."""
        p = plummer_sphere(20000, scale_radius=1.0, seed=4)
        r = np.linalg.norm(p.position, axis=1)
        assert np.median(r) == pytest.approx(1.305, rel=0.1)

    def test_clustered_is_clustered(self):
        """Clumped ICs have far higher density contrast than uniform."""
        c = clustered_clumps(4000, seed=2)
        u = uniform_cube(4000, seed=2)

        def contrast(ps):
            H, _ = np.histogramdd(ps.position, bins=8)
            return H.max() / max(H.mean(), 1)

        assert contrast(c) > 4 * contrast(u)

    def test_clustered_background_fraction_validation(self):
        with pytest.raises(ValueError):
            clustered_clumps(100, background_fraction=1.5)

    def test_disk_structure(self):
        params = DiskParams()
        p = keplerian_disk(500, params=params, seed=1)
        assert len(p) == 502  # + star + planet
        assert p.has_field("radius") and p.has_field("ptype")
        assert (p.ptype == 1).sum() == 1  # one star
        assert (p.ptype == 2).sum() == 1  # one planet
        # planetesimals lie in the configured annulus (cylindrical radius)
        disk = p.select(p.ptype == 0)
        rho = np.hypot(disk.position[:, 0], disk.position[:, 1])
        assert rho.min() > 0.9 * params.inner_radius
        assert rho.max() < 1.2 * params.outer_radius
        # thin disk
        assert np.abs(disk.position[:, 2]).max() < 0.1 * params.outer_radius

    def test_disk_orbits_are_circularish(self):
        """v ≈ sqrt(mu/r) for near-circular orbits."""
        p = keplerian_disk(300, seed=2, include_planet=False, include_star=False)
        r = np.linalg.norm(p.position, axis=1)
        v = np.linalg.norm(p.velocity, axis=1)
        v_circ = np.sqrt(G_AU_MSUN_YR / r)
        assert np.allclose(v, v_circ, rtol=0.1)


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        p = keplerian_disk(50, seed=3)
        path = tmp_path / "snap.npz"
        save_particles(path, p)
        q = load_particles(path)
        assert q.field_names == p.field_names
        for name in p.field_names:
            assert np.array_equal(p[name], q[name]), name

    def test_missing_position_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, field_velocity=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            load_particles(path)
