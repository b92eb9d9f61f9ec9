"""Collision detection, orbital mechanics, and the planetesimal driver."""

import itertools
import warnings

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
from repro.particles import DiskParams, ParticleSet, clustered_clumps, keplerian_disk
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
        events, _ = detect_collisions(tree, dt=0.2)
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


    def test_events_do_not_depend_on_the_traversal_engine(self, monkeypatch):
        """Events come out in (i, j) order with values computed from the
        (i, j) pair, so the engine that gathered the candidates — and the
        order it visited them in — leaves no trace."""
        from repro.apps.collision import detector
        from repro.core import get_traverser

        disk = keplerian_disk(800, params=DiskParams(planetesimal_radius=6e-3), seed=4)
        tree = build_tree(disk, tree_type="longest", bucket_size=8)
        default, _ = detect_collisions(tree, dt=0.02, exclude_types=disk.ptype != 0)
        monkeypatch.setattr(detector, "get_traverser", lambda name: get_traverser("per-bucket"))
        per_bucket, _ = detect_collisions(tree, dt=0.02, exclude_types=disk.ptype != 0)
        assert len(default) > 3
        keys = [(e.i, e.j) for e in default]
        assert keys == sorted(keys)
        assert keys == [(e.i, e.j) for e in per_bucket]
        for a, b in zip(default, per_bucket):
            assert (a.time, a.distance) == (b.time, b.distance)
            assert a.position.tobytes() == b.position.tobytes()


def _event_bytes(events):
    return [(e.i, e.j, e.time, e.distance, e.position.tobytes()) for e in events]


def _assert_matches_oracle(tree, dt, exclude=None):
    """detect_collisions == the ball-search detector, event by event in
    bytes; returns the event count."""
    from tests.harness.collision_reference import reference_collisions

    got, _ = detect_collisions(tree, dt, exclude_types=exclude)
    want, _ = reference_collisions(tree, dt, exclude_types=exclude)
    assert _event_bytes(got) == _event_bytes(want)
    return len(got)


def _oracle_set(kind):
    """The two differential datasets: a Keplerian disk (star and planet
    included, as the driver sees it) and clumps with random velocities."""
    if kind == "disk":
        return keplerian_disk(500, params=DiskParams(planetesimal_radius=6e-3), seed=9)
    base = clustered_clumps(500, seed=3)
    rng = np.random.default_rng(3)
    # one body in ten twenty times faster: crossings from every direction
    velocity = rng.normal(0, 0.3, (500, 3)) * np.where(rng.random(500) < 0.1, 20.0, 1.0)[:, None]
    ptype = (np.arange(500) % 7 == 0).astype(np.int64)
    return ParticleSet(base.position, velocity, base.mass,
                       radius=rng.uniform(0.001, 0.008, 500), ptype=ptype)


def _oracle_case(kind, tree_type, bucket, dt, exclude):
    p = _oracle_set(kind)
    tree = build_tree(p, tree_type=tree_type, bucket_size=bucket)
    return _assert_matches_oracle(tree, dt, tree.particles.ptype != 0 if exclude else None)


class TestAgainstBallSearchOracle:
    """The pruning rule decides which pairs reach the exact test, never the
    outcome: events equal the ball-search detector's
    (tests/harness/collision_reference.py) in bytes."""

    #: tree type -> the (bucket size, dt, exclude) case a run that selects
    #: every test checks; ``-m slow`` sweeps them all
    DIAGONAL = {"oct": (1, 0.2, False), "kd": (8, 0.025, True), "longest": (16, 0.01, False)}

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["disk", "clumps"])
    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_matches_oracle(self, request, kind, tree_type):
        if request.config.getoption("markexpr") == "slow":
            cases = itertools.product([1, 8, 16], [0.01, 0.025, 0.2], [False, True])
        else:
            cases = [self.DIAGONAL[tree_type]]
        events = [_oracle_case(kind, tree_type, *case) for case in cases]
        assert sum(events) > 0

    @pytest.mark.parametrize("bucket", [1, 4])
    def test_coincident_particles_with_equal_velocity(self, bucket):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 1, (40, 3))
        pos[7] = pos[23] = pos[31]
        vel = rng.normal(0, 0.1, (40, 3))
        vel[7] = vel[23] = vel[31]
        p = ParticleSet(pos, vel, np.ones(40), radius=np.full(40, 1e-3))
        tree = build_tree(p, tree_type="kd", bucket_size=bucket)
        assert _assert_matches_oracle(tree, 0.01) >= 3

    @pytest.mark.parametrize("bucket", [1, 2])
    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_fast_body_crossing_a_slow_one_mid_step(self, tree_type, bucket):
        """Only the velocity ranges bring these two within reach: they are
        a unit apart at both ends of the step and touch half way.  A slow
        companion of the fast body, receding, widens its bucket's range
        at the low end only."""
        rng = np.random.default_rng(6)
        pos = np.vstack([[[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-1.0, -0.05, 0.0]],
                         rng.uniform(2, 4, (30, 3))])
        vel = np.vstack([[[0.0, 0.0, 0.0], [20.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                         rng.normal(0, 0.01, (30, 3))])
        p = ParticleSet(pos, vel, np.ones(33), radius=np.full(33, 0.01))
        tree = build_tree(p, tree_type=tree_type, bucket_size=bucket)
        events, _ = detect_collisions(tree, dt=0.1)
        assert [(sorted(tree.particles.orig_index[[e.i, e.j]]), round(e.time, 6))
                for e in events] == [([0, 1], 0.05)]
        _assert_matches_oracle(tree, 0.1)

    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_fast_body_approaching_against_tree_order(self, tree_type):
        """On the octree the victim (upper x octant) precedes the fast body
        (upper y octant) in Morton order, yet the fast body closes in along
        +x: the bound must take the source's upper velocity against the
        target's lower one too, not only the reverse."""
        corners = np.array(list(itertools.product([0.0, 4.0], repeat=3)))
        pos = np.vstack([[[2.5, 1.0, 1.0], [1.5, 3.0, 1.0], [1.5, 3.05, 1.0]], corners])
        vel = np.zeros((11, 3))
        vel[1], vel[2] = [10.5, -21.0, 0.0], [-1.0, 1.0, 0.0]
        p = ParticleSet(pos, vel, np.ones(11), radius=np.full(11, 0.01))
        tree = build_tree(p, tree_type=tree_type, bucket_size=2)
        assert _assert_matches_oracle(tree, 0.1) == 1

    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_unequal_radii_at_rest(self, tree_type):
        """A small body inside a large one's reach, the large one first in
        tree order and then second: the bound takes each side's radius."""
        rng = np.random.default_rng(7)
        pos = np.vstack([[[0.0, 0, 0], [0.05, 0, 0], [1.0, 0, 0], [1.05, 0, 0]],
                         rng.uniform(2, 4, (30, 3))])
        radius = np.concatenate([[0.1, 0.001, 0.001, 0.1], np.full(30, 0.001)])
        p = ParticleSet(pos, np.zeros((34, 3)), np.ones(34), radius=radius)
        tree = build_tree(p, tree_type=tree_type, bucket_size=1)
        assert _assert_matches_oracle(tree, 0.01) == 2

    def test_one_particle_tree(self):
        p = ParticleSet(np.zeros((1, 3)), np.ones((1, 3)), np.ones(1), radius=np.ones(1))
        tree = build_tree(p, tree_type="oct", bucket_size=1)
        assert _assert_matches_oracle(tree, 0.1) == 0

    def test_all_particles_excluded(self):
        p = _oracle_set("clumps")
        tree = build_tree(p, tree_type="longest", bucket_size=8)
        assert _assert_matches_oracle(tree, 0.2) > 0
        assert _assert_matches_oracle(tree, 0.2, np.ones(tree.n_particles, dtype=bool)) == 0


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

    def test_merging_step_drifts_the_survivors(self):
        """A step that merges a pair drifts the merged set: every survivor
        moves by its velocity times dt."""
        pos = np.array([[1.0, 0, 0], [1.01, 0, 0], [5.0, 5, 5], [-5.0, -5, -5]])

        class Main(PlanetesimalDriver):
            def create_particles(self, config):
                return ParticleSet(pos.copy(), np.tile([1.0, 0, 0], (4, 1)),
                                   np.full(4, 1e-12), radius=np.full(4, 0.05))

        d = Main(Configuration(num_iterations=1, tree_type="kd", bucket_size=1,
                               num_partitions=1, num_subtrees=1), dt=0.1, merge=True)
        d.run()
        p = d.particles
        assert len(p) == 3 and d.time == pytest.approx(0.1)
        start = pos[p.orig_index]
        start[p.orig_index == 0] = [1.005, 0, 0]  # the merged pair's centre of mass
        np.testing.assert_allclose(p.position, start + p.velocity * 0.1, atol=1e-12)
        assert np.all(p.velocity[:, 0] == pytest.approx(1.0))

    def test_star_less_collision_at_the_origin_warns_nothing(self):
        """Without a star the elements are taken about the origin; a body
        colliding there gets NaN elements, and no RuntimeWarning."""
        pos = np.array([[0.0, 0, 0], [0.01, 0, 0], [5.0, 5, 5], [-5.0, -5, -5]])

        class Main(PlanetesimalDriver):
            def create_particles(self, config):
                return ParticleSet(pos.copy(), np.tile([1.0, 0, 0], (4, 1)),
                                   np.full(4, 1e-12), radius=np.full(4, 0.05))

        d = Main(Configuration(num_iterations=1, tree_type="kd", bucket_size=1,
                               num_partitions=1, num_subtrees=1), dt=0.1, merge=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d.run()
        assert len(d.log) == 1 and len(d.particles) == 3


class TestProfileHelpers:
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
