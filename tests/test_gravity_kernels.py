"""Force kernels and the leapfrog integrator."""

import numpy as np
import pytest

from repro.apps.gravity import (
    direct_accelerations,
    direct_potential,
    drift,
    kick,
    pairwise_accel,
    pairwise_potential,
)
from repro.apps.gravity.direct import acceleration_error
from repro.particles import ParticleSet, plummer_sphere
from tests.harness.gravity_reference import point_mass_accel, quadrupole_accel


class TestPairwiseKernels:
    def test_two_body_newton(self):
        t = np.array([[0.0, 0, 0]])
        s = np.array([[2.0, 0, 0]])
        acc = pairwise_accel(t, s, np.array([3.0]), G=2.0)
        assert np.allclose(acc, [[2.0 * 3.0 / 4.0, 0, 0]])

    def test_self_pair_excluded(self):
        pos = np.array([[1.0, 2, 3]])
        acc = pairwise_accel(pos, pos, np.array([1.0]))
        assert np.all(acc == 0.0)

    def test_softening_caps_force(self):
        t = np.zeros((1, 3))
        s = np.array([[1e-8, 0, 0]])
        hard = pairwise_accel(t, s, np.ones(1), softening=0.0)
        soft = pairwise_accel(t, s, np.ones(1), softening=0.1)
        assert np.linalg.norm(soft) < 1e-3 * np.linalg.norm(hard)

    def test_newton_third_law(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(30, 3))
        m = rng.uniform(0.5, 2.0, 30)
        acc = pairwise_accel(pos, pos, m)
        total = (m[:, None] * acc).sum(axis=0)
        assert np.allclose(total, 0.0, atol=1e-12)

    def test_point_mass_matches_pairwise(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(10, 3))
        c = np.array([5.0, 0, 0])
        a1 = point_mass_accel(t, c, 2.5, G=1.5, softening=0.01)
        a2 = pairwise_accel(t, c[None, :], np.array([2.5]), G=1.5, softening=0.01)
        assert np.allclose(a1, a2)

    def test_potential_two_body(self):
        phi = pairwise_potential(np.zeros((1, 3)), np.array([[2.0, 0, 0]]), np.array([4.0]))
        assert phi[0] == pytest.approx(-2.0)

    def test_direct_chunking_consistent(self):
        p = plummer_sphere(300, seed=6)
        a = direct_accelerations(p, chunk=64)
        b = direct_accelerations(p, chunk=1000)
        assert np.allclose(a, b)

    def test_energy_virial_scale(self):
        """For a Plummer sphere the potential is negative everywhere."""
        p = plummer_sphere(500, seed=7)
        phi = direct_potential(p)
        assert np.all(phi < 0)


class TestQuadrupole:
    def test_far_field_beats_monopole(self):
        """For an elongated source cluster seen from afar, adding the
        quadrupole must reduce the error vs the true summed force."""
        rng = np.random.default_rng(2)
        src = rng.normal(size=(200, 3)) * np.array([1.0, 0.2, 0.2])
        m = rng.uniform(0.5, 1.5, 200)
        com = (m[:, None] * src).sum(axis=0) / m.sum()
        d = src - com
        cov = np.einsum("p,pi,pj->ij", m, d, d)
        quad = 3 * cov - np.trace(cov) * np.eye(3)
        targets = np.array([[6.0, 2.0, 1.0], [0.0, 7.0, 0.0], [-5.0, -5.0, 3.0]])
        exact = pairwise_accel(targets, src, m)
        mono = point_mass_accel(targets, com, float(m.sum()))
        quadr = quadrupole_accel(targets, com, float(m.sum()), quad)
        err_mono = np.linalg.norm(mono - exact)
        err_quad = np.linalg.norm(quadr - exact)
        assert err_quad < 0.4 * err_mono

    def test_spherical_source_quadrupole_vanishes(self):
        """An isotropic shell has (statistically) tiny quadrupole."""
        rng = np.random.default_rng(3)
        v = rng.normal(size=(5000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        m = np.ones(5000)
        cov = np.einsum("p,pi,pj->ij", m, v, v)
        quad = 3 * cov - np.trace(cov) * np.eye(3)
        assert np.abs(quad).max() < 0.05 * m.sum()

    def test_zero_quad_equals_monopole(self):
        t = np.array([[3.0, 1.0, -2.0]])
        a = quadrupole_accel(t, np.zeros(3), 2.0, np.zeros((3, 3)))
        b = point_mass_accel(t, np.zeros(3), 2.0)
        assert np.allclose(a, b)


class TestTreeWalkOpeningEverythingIsTheDirectSum:
    """θ → 0 opens every node, so the tree walk meets exactly the N² particle
    pairs of direct summation — and, the per-pair arithmetic being the one
    shared implementation (``tests/test_differential.py`` pins the bits),
    the two results are sums of *identical* terms in different orders."""

    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_counts_exact_and_values_within_summation_order(self, tree_type):
        from repro.apps.gravity import compute_gravity
        from repro.particles import clustered_clumps

        p = clustered_clumps(1500, seed=31)
        n, eps = len(p), 1e-3
        result = compute_gravity(p.copy(), theta=1e-9, softening=eps, tree_type=tree_type)
        assert result.stats.pn_interactions == 0
        assert result.stats.pp_interactions == n * n
        direct = direct_accelerations(p, softening=eps)
        # Any summation order of n terms x_j is within γ Σ|x_j| of their exact
        # sum, γ = (n-1)u / (1 - (n-1)u), u = 2⁻⁵³ (Higham, Accuracy and
        # Stability of Numerical Algorithms, §4.2): two orders differ by at
        # most 2γ Σ|x_j|.  Σ|x_j| is rebuilt here from the formula; its own
        # rounding (a few u, relative) is covered by the factor 1.001.
        d = p.position[None, :, :] - p.position[:, None, :]
        r2 = (d * d).sum(axis=2)
        w = np.where(r2 > 0.0, p.mass[None, :] / (r2 + eps * eps) ** 1.5, 0.0)
        magnitude = (np.abs(d) * w[:, :, None]).sum(axis=1)
        nu = (n - 1) * 2.0 ** -53
        bound = 1.001 * 2 * nu / (1 - nu) * magnitude
        assert (np.abs(result.accel - direct) <= bound).all()
        # what the bound is worth (6e-13 of a typical component at this n):
        # no physics tolerance hides in it
        assert np.median(bound / np.abs(direct)) < 1e-12

    def test_theta_zero_is_rejected(self):
        from repro.apps.gravity import compute_gravity

        with pytest.raises(ValueError, match=r"^theta must be > 0, got 0$"):
            compute_gravity(plummer_sphere(64, seed=1), theta=0)


class TestIntegrator:
    def test_kick_drift(self):
        p = ParticleSet(np.zeros((1, 3)), np.array([[1.0, 0, 0]]))
        kick(p, np.array([[0.0, 2.0, 0.0]]), 0.5)
        assert np.allclose(p.velocity, [[1.0, 1.0, 0.0]])
        drift(p, 2.0)
        assert np.allclose(p.position, [[2.0, 2.0, 0.0]])

    def test_leapfrog_circular_orbit_energy(self):
        """KDK leapfrog keeps a two-body circular orbit's radius bounded
        over many periods (symplectic behaviour)."""
        mu = 1.0
        r0 = 1.0
        p = ParticleSet(
            np.array([[r0, 0, 0]]), np.array([[0.0, 1.0, 0.0]]), np.array([1e-30])
        )

        def accel():
            r = p.position[0]
            return (-mu * r / np.linalg.norm(r) ** 3)[None, :]

        dt = 0.02
        radii = []
        for _ in range(2000):  # ~6 orbits
            kick(p, accel(), 0.5 * dt)
            drift(p, dt)
            kick(p, accel(), 0.5 * dt)
            radii.append(np.linalg.norm(p.position[0]))
        radii = np.array(radii)
        assert np.abs(radii - r0).max() < 0.01


class TestErrorMetric:
    def test_zero_error(self):
        a = np.ones((5, 3))
        err = acceleration_error(a, a)
        assert err["mean"] == 0.0 and err["max"] == 0.0

    def test_known_error(self):
        exact = np.array([[1.0, 0, 0]])
        approx = np.array([[1.1, 0, 0]])
        err = acceleration_error(approx, exact)
        assert err["mean"] == pytest.approx(0.1)
