"""FoF group finding, build-time model, potential/energy, kernel registry."""

import numpy as np
import pytest

from repro.apps.fof import UnionFind, friends_of_friends
from repro.apps.gravity import compute_gravity, direct_potential
from repro.decomp import SfcDecomposer, estimate_build_times
from repro.particles import clustered_clumps, uniform_cube
from repro.trees import build_tree
from tests.harness.ball_reference import brute_force_fof


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)
        labels = uf.labels()
        assert labels[0] == labels[1]
        assert labels[2] not in (labels[0], labels[3])

    def test_transitive_chain(self):
        uf = UnionFind(6)
        for i in range(5):
            uf.union(i, i + 1)
        assert len(set(uf.labels().tolist())) == 1


class TestFoF:
    def test_matches_brute_force(self):
        p = clustered_clumps(800, seed=9)
        res = friends_of_friends(p, linking_length=0.03)
        tree = build_tree(p, tree_type="oct", bucket_size=16)
        bf = brute_force_fof(tree.particles.position, 0.03)
        # same partitions: group labels must be a relabeling of each other
        got = res.labels
        mapping = {}
        for a, b in zip(got, bf):
            assert mapping.setdefault(int(a), int(b)) == int(b)
        assert len(set(got.tolist())) == len(set(bf.tolist()))

    def test_finds_the_clumps(self):
        """At a linking length between the clump scale and the clump
        separation, each Plummer clump becomes one large group."""
        p = clustered_clumps(3000, n_clumps=5, background_fraction=0.0, seed=10)
        res = friends_of_friends(p, linking_length=0.02)
        halos = res.groups_larger_than(100)
        assert 3 <= len(halos) <= 7  # clumps can merge/fragment slightly

    def test_tiny_linking_length_isolates(self):
        p = uniform_cube(300, seed=11)
        res = friends_of_friends(p, linking_length=1e-9)
        assert res.n_groups == 300
        assert np.all(res.group_sizes == 1)

    def test_huge_linking_length_unifies(self):
        p = uniform_cube(300, seed=12)
        res = friends_of_friends(p, linking_length=10.0)
        assert res.n_groups == 1
        assert res.group_mass[0] == pytest.approx(p.mass.sum())

    def test_group_summaries_consistent(self):
        p = clustered_clumps(600, seed=13)
        res = friends_of_friends(p, linking_length=0.05)
        assert res.group_sizes.sum() == 600
        assert res.group_mass.sum() == pytest.approx(p.mass.sum())
        # COM of each big group lies inside the group's bounding box
        tree = build_tree(p, tree_type="oct", bucket_size=16)
        for g in res.groups_larger_than(20):
            members = tree.particles.position[res.labels == g]
            assert np.all(res.group_com[g] >= members.min(axis=0) - 1e-12)
            assert np.all(res.group_com[g] <= members.max(axis=0) + 1e-12)

    def test_invalid_linking_length(self):
        with pytest.raises(ValueError):
            friends_of_friends(uniform_cube(10, seed=0), 0.0)


class TestBuildTimeModel:
    @pytest.fixture(scope="class")
    def tree(self):
        return build_tree(clustered_clumps(8000, seed=14), tree_type="kd", bucket_size=16)

    def test_traditional_bytes_grow_with_granularity(self, tree):
        """§II-C: finer SFC decomposition duplicates more branch data."""
        sync_bytes = []
        for n_parts in (8, 32, 128):
            parts = SfcDecomposer().assign(tree.particles, n_parts)
            trad, _ = estimate_build_times(tree, parts, n_processes=n_parts)
            sync_bytes.append(trad.sync_bytes)
        assert sync_bytes[0] < sync_bytes[1] < sync_bytes[2]

    def test_ps_wins_at_fine_granularity(self, tree):
        """With partitions scaling with processes (strong scaling), the
        Partitions-Subtrees sync cost undercuts the merge reduction."""
        parts = SfcDecomposer().assign(tree.particles, 256)
        trad, ps = estimate_build_times(tree, parts, n_processes=64)
        assert ps.sync_time < trad.sync_time
        assert ps.local_build == trad.local_build

class TestPotentialAndEnergy:
    def test_potential_matches_direct(self):
        p = clustered_clumps(1200, seed=15)
        res = compute_gravity(p, theta=0.5, softening=1e-3, with_potential=True)
        exact = direct_potential(p, softening=1e-3)
        rel = np.abs(res.potential - exact) / np.abs(exact)
        assert np.median(rel) < 2e-3

    def test_potential_none_by_default(self):
        p = uniform_cube(200, seed=16)
        res = compute_gravity(p, theta=0.7)
        assert res.potential is None

    def test_potential_engine_equivalence(self):
        p = uniform_cube(400, seed=17)
        a = compute_gravity(p, theta=0.6, with_potential=True, traverser="transposed")
        b = compute_gravity(p, theta=0.6, with_potential=True, traverser="per-bucket")
        assert np.allclose(a.potential, b.potential, rtol=1e-9)

    def test_leapfrog_energy_conservation(self):
        """KDK leapfrog on a softened cluster: total energy drift stays
        small over many steps (symplectic integrator + consistent forces)."""
        from repro.apps.gravity import drift, kick
        from repro.particles import plummer_sphere

        p = plummer_sphere(300, seed=18)
        # virial-ish velocities so the cluster doesn't instantly collapse
        rng = np.random.default_rng(0)
        p.velocity += rng.normal(0, 0.3, p.velocity.shape)
        eps = 0.05

        def forces():
            res = compute_gravity(p, theta=0.4, softening=eps, with_potential=True)
            return res.accel, res.potential

        def energy(pot):
            ke = 0.5 * np.sum(p.mass * np.einsum("ij,ij->i", p.velocity, p.velocity))
            return ke + 0.5 * np.sum(p.mass * pot)

        acc, pot = forces()
        e0 = energy(pot)
        dt = 0.01
        for _ in range(40):
            kick(p, acc, 0.5 * dt)
            drift(p, dt)
            acc, pot = forces()
            kick(p, acc, 0.5 * dt)
        e1 = energy(pot)
        assert abs(e1 - e0) < 0.02 * abs(e0)


class TestKernelRegistry:
    """The SPH kernel: the cubic spline is the only one."""

    def test_all_kernels_normalised(self):
        from repro.apps.sph import cubic_spline_W

        r = np.linspace(0, 1, 20001)
        integral = np.trapezoid(4 * np.pi * r**2 * cubic_spline_W(r, 1.0), r)
        assert integral == pytest.approx(1.0, rel=1e-3)

    def test_gradients_match_finite_difference(self):
        from repro.apps.sph import cubic_spline_gradW_over_r, cubic_spline_W

        rm = np.linspace(0.02, 0.95, 40)
        eps = 1e-6
        fd = (cubic_spline_W(rm + eps, 1.0) - cubic_spline_W(rm - eps, 1.0)) / (2 * eps)
        assert np.allclose(cubic_spline_gradW_over_r(rm, 1.0) * rm, fd, rtol=1e-3, atol=1e-5)
