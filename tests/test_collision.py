"""Collision detection, orbital mechanics, and the planetesimal driver."""

import numpy as np
import pytest

from repro.apps.collision import (
    RESONANCES,
    PlanetesimalDriver,
    closest_approach,
    detect_collisions,
    orbital_elements,
    orbital_period,
    resonance_semi_major_axis,
)
from repro.core import Configuration
from repro.particles import DiskParams, ParticleSet, keplerian_disk
from repro.particles.generators import G_AU_MSUN_YR
from repro.trees import build_tree


class TestOrbits:
    def test_circular_orbit_elements(self):
        r = 2.5
        v = np.sqrt(G_AU_MSUN_YR / r)
        el = orbital_elements(np.array([[r, 0, 0]]), np.array([[0, v, 0]]))
        assert el["a"][0] == pytest.approx(r, rel=1e-10)
        assert el["e"][0] == pytest.approx(0.0, abs=1e-10)
        assert el["inc"][0] == pytest.approx(0.0, abs=1e-10)

    def test_eccentric_orbit(self):
        # launch at pericentre q with v > v_circ: a = q/(1-e)
        q = 1.0
        e = 0.3
        v_peri = np.sqrt(G_AU_MSUN_YR / q * (1 + e))
        el = orbital_elements(np.array([[q, 0, 0]]), np.array([[0, v_peri, 0]]))
        assert el["e"][0] == pytest.approx(e, rel=1e-10)
        assert el["a"][0] == pytest.approx(q / (1 - e), rel=1e-10)

    def test_inclined_orbit(self):
        r = 1.0
        v = np.sqrt(G_AU_MSUN_YR / r)
        incl = 0.2
        vel = np.array([[0, v * np.cos(incl), v * np.sin(incl)]])
        el = orbital_elements(np.array([[r, 0, 0]]), vel)
        assert el["inc"][0] == pytest.approx(incl, rel=1e-8)

    def test_kepler_third_law(self):
        assert orbital_period(1.0) == pytest.approx(1.0)  # 1 AU -> 1 yr
        assert orbital_period(4.0) == pytest.approx(8.0)

    def test_resonance_locations(self):
        """The paper's 2:1 resonance sits at 3.27 AU for a planet at 5.2."""
        assert resonance_semi_major_axis(5.2, 2, 1) == pytest.approx(3.275, abs=0.01)
        a3 = resonance_semi_major_axis(5.2, 3, 1)
        a2 = resonance_semi_major_axis(5.2, 2, 1)
        a53 = resonance_semi_major_axis(5.2, 5, 3)
        assert a3 < a2 < a53  # left-to-right order in Fig 12

    def test_resonance_validation(self):
        with pytest.raises(ValueError):
            resonance_semi_major_axis(5.2, 1, 2)

    def test_resonances_constant(self):
        assert RESONANCES == ((3, 1), (2, 1), (5, 3))


class TestClosestApproach:
    def test_head_on(self):
        t, d2 = closest_approach(np.array([[2.0, 0, 0]]), np.array([[-1.0, 0, 0]]), dt=5.0)
        assert t[0] == pytest.approx(2.0)
        assert d2[0] == pytest.approx(0.0)

    def test_clamped_to_step(self):
        t, d2 = closest_approach(np.array([[2.0, 0, 0]]), np.array([[-1.0, 0, 0]]), dt=1.0)
        assert t[0] == 1.0
        assert d2[0] == pytest.approx(1.0)

    def test_receding(self):
        t, d2 = closest_approach(np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]]), dt=1.0)
        assert t[0] == 0.0
        assert d2[0] == pytest.approx(1.0)

    def test_zero_relative_velocity(self):
        t, d2 = closest_approach(np.array([[1.0, 0, 0]]), np.zeros((1, 3)), dt=1.0)
        assert d2[0] == pytest.approx(1.0)


class TestDetector:
    def _two_body_set(self, sep, radius, v_rel=0.0):
        pos = np.array([[0.0, 0, 0], [sep, 0, 0], [5.0, 5, 5]])
        vel = np.array([[0.0, 0, 0], [-v_rel, 0, 0], [0.0, 0, 0]])
        return ParticleSet(pos, vel, np.ones(3), radius=np.full(3, radius))

    def test_overlapping_pair_detected(self):
        p = self._two_body_set(sep=0.05, radius=0.05)
        tree = build_tree(p, tree_type="kd", bucket_size=2)
        events, _ = detect_collisions(tree, dt=0.1)
        assert len(events) == 1
        ev = events[0]
        assert ev.distance <= 0.1

    def test_separated_pair_not_detected(self):
        p = self._two_body_set(sep=0.5, radius=0.05)
        tree = build_tree(p, tree_type="kd", bucket_size=2)
        events, _ = detect_collisions(tree, dt=0.01)
        assert events == []

    def test_approaching_pair_detected_mid_step(self):
        """Bodies that only touch during the drift are caught."""
        p = self._two_body_set(sep=1.0, radius=0.05, v_rel=10.0)
        tree = build_tree(p, tree_type="kd", bucket_size=2)
        events, _ = detect_collisions(tree, dt=0.2, v_rel_max=10.0)
        assert len(events) == 1
        assert 0 < events[0].time < 0.2

    def test_pair_reported_once(self):
        p = self._two_body_set(sep=0.05, radius=0.05)
        tree = build_tree(p, tree_type="kd", bucket_size=1)
        events, _ = detect_collisions(tree, dt=0.1)
        keys = [(e.i, e.j) for e in events]
        assert len(keys) == len(set(keys)) == 1
        assert all(i < j for i, j in keys)

    def test_exclude_types(self):
        p = self._two_body_set(sep=0.05, radius=0.05)
        exclude = np.array([True, False, False])
        tree = build_tree(p, tree_type="kd", bucket_size=2)
        events, _ = detect_collisions(tree, dt=0.1, exclude_types=exclude)
        assert events == []

    def test_matches_brute_force_on_disk(self):
        disk = keplerian_disk(
            400, params=DiskParams(planetesimal_radius=8e-3), seed=21,
            include_star=False, include_planet=False,
        )
        tree = build_tree(disk, tree_type="longest", bucket_size=8)
        dt = 0.01
        events, _ = detect_collisions(tree, dt=dt)
        # brute force over all pairs
        pos = tree.particles.position
        vel = tree.particles.velocity
        radii = tree.particles.radius
        expect = set()
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                t, d2 = closest_approach(
                    (pos[j] - pos[i])[None], (vel[j] - vel[i])[None], dt
                )
                if d2[0] <= (radii[i] + radii[j]) ** 2:
                    expect.add((i, j))
        got = {(e.i, e.j) for e in events}
        assert got == expect


    def test_events_do_not_depend_on_the_ball_search_engine(self, monkeypatch):
        """Events come out in (i, j) order with values computed from the
        (i, j) pair, so the engine that gathered the candidates — and the
        order it visited them in — leaves no trace."""
        import functools

        from repro.apps.collision import detector
        from repro.apps.knn import ball_search

        disk = keplerian_disk(800, params=DiskParams(planetesimal_radius=6e-3), seed=4)
        tree = build_tree(disk, tree_type="longest", bucket_size=8)
        default, _ = detect_collisions(tree, dt=0.02, exclude_types=disk.ptype != 0)
        monkeypatch.setattr(detector, "ball_search",
                            functools.partial(ball_search, traverser="per-bucket"))
        per_bucket, _ = detect_collisions(tree, dt=0.02, exclude_types=disk.ptype != 0)
        assert len(default) > 3
        keys = [(e.i, e.j) for e in default]
        assert keys == sorted(keys)
        assert keys == [(e.i, e.j) for e in per_bucket]
        for a, b in zip(default, per_bucket):
            assert (a.time, a.distance) == (b.time, b.distance)
            assert a.position.tobytes() == b.position.tobytes()


class TestPlanetesimalDriver:
    def _driver(self, merge=False, n=600, steps=5):
        params = DiskParams(planetesimal_radius=6e-3, eccentricity_dispersion=0.02)

        class Main(PlanetesimalDriver):
            def create_particles(self, config):
                return keplerian_disk(n, params=params, seed=22)

        cfg = Configuration(
            num_iterations=steps, tree_type="longest", decomp_type="longest",
            num_partitions=4, num_subtrees=4,
        )
        return Main(cfg, dt=0.01, merge=merge)

    def test_records_collisions_with_elements(self):
        d = self._driver()
        d.run()
        assert len(d.log) > 0
        arr = d.log.as_arrays()
        # recorded elements are physical: a within a factor of the disk
        assert np.all(arr["a"][np.isfinite(arr["a"])] > 0.5)
        assert np.all(arr["distance"] > 0)
        assert np.all(arr["period"][np.isfinite(arr["period"])] > 0)
        assert len(arr["time"]) == len(d.log)

    def test_orbits_stay_bound(self):
        d = self._driver(n=400, steps=10)
        d.run()
        p = d.particles
        disk = p.select(p.ptype == 0) if p.has_field("ptype") else p
        el = orbital_elements(disk.position, disk.velocity)
        ok = np.isfinite(el["a"])
        assert np.median(el["a"][ok]) == pytest.approx(2.9, rel=0.3)
        assert (el["e"][ok] < 1).mean() > 0.99

    def test_merging_reduces_count_conserves_mass_momentum(self):
        d = self._driver(merge=True, n=600, steps=5)
        d.configure(d.config)
        d.particles = d.create_particles(d.config)
        m0 = d.particles.mass.sum()
        n0 = len(d.particles)
        for it in range(5):
            d.run_iteration(it)
        assert len(d.particles) < n0
        assert d.particles.mass.sum() == pytest.approx(m0)


class TestProfileHelpers:
    def test_radial_profile_counts(self):
        from repro.apps.collision import collision_radial_profile

        d = np.array([2.1, 2.1, 3.0, 3.0, 3.0])
        edges = np.array([2.0, 2.5, 3.5])
        counts = collision_radial_profile(d, edges, per_area=False)
        assert counts.tolist() == [2.0, 3.0]
        per_area = collision_radial_profile(d, edges, per_area=True)
        # outer annulus is larger, so its per-area value drops more
        assert per_area[0] / counts[0] > per_area[1] / counts[1]

    def test_radial_profile_validation(self):
        from repro.apps.collision import collision_radial_profile

        with pytest.raises(ValueError):
            collision_radial_profile(np.array([2.0]), np.array([3.0, 2.0]))

    def test_resonance_excess_detects_pileup(self):
        from repro.apps.collision import resonance_excess

        rng = np.random.default_rng(1)
        background = rng.uniform(2.0, 4.0, 300)
        pileup = np.full(60, 3.27)  # 2:1 resonance
        exc = resonance_excess(np.concatenate([background, pileup]), 5.2)
        assert exc[(2, 1)] > 3.0
        assert exc[(3, 1)] < 2.0

    def test_resonance_excess_flat_background(self):
        from repro.apps.collision import resonance_excess

        rng = np.random.default_rng(2)
        exc = resonance_excess(rng.uniform(2.0, 4.0, 5000), 5.2)
        for v in exc.values():
            assert 0.5 < v < 1.6
