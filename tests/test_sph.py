"""SPH: kernels, density paths (kNN vs Gadget-style), forces, driver."""

import numpy as np
import pytest

from repro.apps.sph import (
    SPHDriver,
    compute_density_knn,
    compute_pressure_forces,
    cubic_spline_W,
    cubic_spline_gradW_over_r,
    equation_of_state,
    gadget_style_density,
)
from repro.core import Configuration
from repro.particles import uniform_cube
from repro.trees import build_tree


class TestKernel:
    def test_normalisation(self):
        """∫ W dV = 1 over the support sphere."""
        h = 1.0
        r = np.linspace(0, h, 20001)
        w = cubic_spline_W(r, h)
        integral = np.trapezoid(4 * np.pi * r**2 * w, r)
        assert integral == pytest.approx(1.0, rel=1e-4)

    def test_compact_support(self):
        assert cubic_spline_W(np.array([1.0, 1.5]), 1.0).tolist() == [0.0, 0.0]
        assert cubic_spline_W(np.array([0.999]), 1.0)[0] > 0

    def test_monotone_decreasing(self):
        r = np.linspace(0, 1, 100)
        w = cubic_spline_W(r, 1.0)
        assert np.all(np.diff(w) <= 1e-12)

    def test_gradient_matches_finite_difference(self):
        h = 0.8
        r = np.linspace(0.01, 0.79, 50)
        eps = 1e-6
        dw = (cubic_spline_W(r + eps, h) - cubic_spline_W(r - eps, h)) / (2 * eps)
        got = cubic_spline_gradW_over_r(r, h) * r
        assert np.allclose(got, dw, rtol=1e-4, atol=1e-6)

    def test_gradient_zero_at_origin_limit(self):
        # (dW/dr)/r is finite at r=0 (inner-branch analytic limit)
        val = cubic_spline_gradW_over_r(np.array([0.0]), 1.0)
        assert np.isfinite(val[0])

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            cubic_spline_W(np.array([0.1]), 0.0)


@pytest.fixture(scope="module")
def tree():
    return build_tree(uniform_cube(1200, seed=10, total_mass=1.0), tree_type="oct", bucket_size=16)


class TestDensity:
    def test_uniform_density_recovered_with_analytic_bias(self, tree):
        """On a uniform unit cube of total mass 1, the interior estimate is
        ρ × (1 + 9.7/k): with h = d_k the k−1 interior neighbours contribute
        ρ(k−1)/k on average while the self term adds m·W(0) = ρ·(32/3)/k.
        For k = 32 that's a factor ≈ 1.29."""
        k = 32
        st = compute_density_knn(tree, k=k)
        pos = tree.particles.position
        interior = np.all(np.abs(pos) < 0.3, axis=1)
        expected = 1.0 * (1.0 - 1.0 / k + (32.0 / 3.0) / k)
        assert np.median(st.density[interior]) == pytest.approx(expected, rel=0.10)

    def test_h_encloses_k_neighbors(self, tree):
        st = compute_density_knn(tree, k=16)
        assert st.neighbors is not None
        # support radius just over the k-th neighbour distance
        assert np.all(st.h**2 >= st.neighbors.dist_sq[:, -1] * 0.999)

    def test_gadget_agrees_with_knn(self, tree):
        knn = compute_density_knn(tree, k=24)
        gad = gadget_style_density(tree, k=24, tol=2)
        assert np.all(gad.converged)
        ratio = gad.density / knn.density
        assert np.median(np.abs(ratio - 1)) < 0.2

    def test_gadget_costs_more_traversal_work(self, tree):
        """The Fig 11 mechanism: ball iteration does a multiple of the kNN
        traversal work."""
        knn = compute_density_knn(tree, k=24)
        gad = gadget_style_density(tree, k=24, tol=2)
        assert gad.n_rounds >= 3
        assert gad.stats.pp_interactions > 1.5 * knn.stats.pp_interactions

    def test_density_positive(self, tree):
        st = compute_density_knn(tree, k=8)
        assert np.all(st.density > 0)


class TestForcesAndEoS:
    def test_eos_forms(self):
        rho = np.array([1.0, 2.0])
        assert np.allclose(
            equation_of_state(rho, internal_energy=1.5, gamma=5 / 3),
            (5 / 3 - 1) * rho * 1.5,
        )
        assert np.allclose(equation_of_state(rho, sound_speed=2.0), 4.0 * rho)
        with pytest.raises(ValueError):
            equation_of_state(rho)

    def test_lattice_interior_forces_vanish(self):
        """On a regular lattice (a relaxed uniform medium), symmetry cancels
        interior pressure forces; only the free boundary pushes."""
        from repro.particles import ParticleSet

        g = np.linspace(-0.5, 0.5, 12)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        pos = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
        p = ParticleSet(pos, mass=np.full(len(pos), 1.0 / len(pos)))
        t = build_tree(p, tree_type="oct", bucket_size=16)
        st = compute_density_knn(t, k=32)
        P = equation_of_state(st.density, internal_energy=1.0)
        acc = compute_pressure_forces(t, st.neighbors, st.density, P, st.h)
        q = t.particles.position
        interior = np.all(np.abs(q) < 0.25, axis=1)
        edge = np.any(np.abs(q) > 0.45, axis=1)
        a = np.linalg.norm(acc, axis=1)
        assert np.median(a[interior]) < 0.1 * np.median(a[edge])

    def test_momentum_nearly_conserved(self, tree):
        """Symmetrised pairwise forces conserve momentum up to neighbour-list
        truncation asymmetry."""
        st = compute_density_knn(tree, k=32)
        P = equation_of_state(st.density, internal_energy=1.0)
        acc = compute_pressure_forces(tree, st.neighbors, st.density, P, st.h)
        m = tree.particles.mass
        net = (m[:, None] * acc).sum(axis=0)
        scale = np.abs(m[:, None] * acc).sum(axis=0)
        assert np.all(np.abs(net) < 0.05 * scale)

    def test_pressure_pushes_outward_from_overdensity(self):
        """A dense clump in a sparse background expands."""
        rng = np.random.default_rng(3)
        clump = rng.normal(0, 0.03, (300, 3))
        bg = rng.uniform(-0.5, 0.5, (300, 3))
        from repro.particles import ParticleSet

        p = ParticleSet(np.vstack([clump, bg]))
        t = build_tree(p, tree_type="oct", bucket_size=16)
        st = compute_density_knn(t, k=16)
        P = equation_of_state(st.density, internal_energy=1.0)
        acc = compute_pressure_forces(t, st.neighbors, st.density, P, st.h)
        pos = t.particles.position
        in_clump = np.linalg.norm(pos, axis=1) < 0.05
        radial = np.einsum("ij,ij->i", acc, pos)
        # Net outward push: the mean radial acceleration in the clump is
        # positive and most clump members feel it.
        assert np.mean(radial[in_clump]) > 0
        assert np.mean(radial[in_clump] > 0) > 0.55


def _sph_inputs(points, every_other_bucket=False):
    """A tree over ``points`` with random velocities and its kNN density
    state; ``every_other_bucket`` searches half the buckets, leaving the
    other rows' neighbour slots ``-1``."""
    from repro.particles import ParticleSet

    ps = ParticleSet(points)
    ps.velocity[:] = np.random.default_rng(8).normal(size=points.shape)
    t = build_tree(ps, tree_type="oct", bucket_size=8)
    with np.errstate(invalid="ignore"):        # unsearched rows: inf / inf
        st = compute_density_knn(t, k=12,
                                 targets=t.leaf_indices[::2] if every_other_bucket else None)
    return t, st, equation_of_state(st.density, internal_energy=1.0)


class TestForceSumsEqualScatterOracle:
    """Per-row force sums are ``np.add.at``'s pair scatter in bytes
    (tests/harness/sph_reference.py): same pair maths, same addition order
    per row, ``-1`` slots adding nothing."""

    @pytest.fixture(params=["uniform", "duplicated", "coincident", "half searched"])
    def inputs(self, request):
        base = np.random.default_rng(4).uniform(-0.5, 0.5, size=(300, 3))
        return {
            "uniform": lambda: _sph_inputs(base),
            "duplicated": lambda: _sph_inputs(np.concatenate([base[:150], base[:150]])),
            "coincident": lambda: _sph_inputs(np.full((40, 3), 0.25)),
            "half searched": lambda: _sph_inputs(base, every_other_bucket=True),
        }[request.param]()

    def test_pressure_forces(self, inputs):
        from tests.harness.sph_reference import pressure_forces

        t, st, P = inputs
        with np.errstate(all="ignore"):
            got = compute_pressure_forces(t, st.neighbors, st.density, P, st.h)
            want = pressure_forces(t, st.neighbors, st.density, P, st.h)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("viscous", [False, True])
    def test_accelerations_and_energy_rate(self, inputs, viscous):
        from repro.apps.sph import ViscosityParams, compute_sph_accelerations
        from tests.harness.sph_reference import sph_accelerations

        t, st, P = inputs
        visc = ViscosityParams() if viscous else None
        with np.errstate(all="ignore"):
            got = compute_sph_accelerations(t, st.neighbors, st.density, P, st.h, viscosity=visc)
            want = sph_accelerations(t, st.neighbors, st.density, P, st.h, viscosity=visc)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestSPHDriver:
    def test_driver_runs_and_updates(self):
        class Main(SPHDriver):
            def create_particles(self, config):
                return uniform_cube(600, seed=15, total_mass=1.0)

        cfg = Configuration(num_iterations=2, num_partitions=4, num_subtrees=4)
        d = Main(cfg, k_neighbors=16, dt=1e-4)
        d.run()
        assert d.state is not None
        assert d.pressure is not None and np.all(d.pressure > 0)
        assert d.accelerations.shape == (600, 3)
        assert d.reports[-1].stats.pp_interactions > 0
