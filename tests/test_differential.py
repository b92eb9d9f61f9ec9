"""Differential equivalence tests: serial ≡ threads ≡ processes.

Every (engine × backend × worker-count) combination must produce
bit-identical outputs and equal interaction counts — see
``tests/harness/differential.py`` for the harness and the rationale for
excluding ``nodes_visited``.  The fast tests cover gravity, kNN, and SPH
across three worker counts; the ``slow``-marked matrix widens to every
engine, dataset, and tree type; hypothesis drives random trees and
visitors through the same assertions.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
from repro.apps.knn.knn import KNNVisitor, brute_force_knn, knn_search
from repro.apps.sph.density import compute_density_knn
from repro.decomp import SfcDecomposer, decompose
from repro.exec import get_backend
from repro.particles.generators import clustered_clumps, uniform_cube
from repro.trees import build_tree

from tests.harness.differential import (
    WORKER_COUNTS,
    CountInRadiusVisitor,
    assert_equivalent,
    brute_force_radius_counts,
    differential_matrix,
    run_combination,
)

HYPOTHESIS_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def small_tree():
    return build_tree(uniform_cube(400, seed=11), tree_type="oct", bucket_size=12)


@pytest.fixture(scope="module")
def clustered_tree():
    return build_tree(clustered_clumps(640, seed=5), tree_type="kd", bucket_size=10)


def gravity_setup(tree, with_potential=False, with_quadrupole=False):
    arrays = compute_centroid_arrays(
        tree, theta=0.6, with_quadrupole=with_quadrupole
    )

    def make(t):
        return GravityVisitor(t, arrays, G=1.0, softening=1e-3,
                              with_potential=with_potential)

    def collect(v):
        out = {"accel": v.accel}
        if v.potential is not None:
            out["potential"] = v.potential
        return out

    return make, collect


def knn_setup(k):
    def make(t):
        return KNNVisitor(t, k)

    def collect(v):
        # the visitor's whole state: the strictest comparison
        return {"dist_sq": v.dist_sq, "index": v.index, "radius_sq": v.radius_sq}

    return make, collect


class TestGravityDifferential:
    def test_matrix_three_worker_counts(self, small_tree):
        make, collect = gravity_setup(small_tree)
        differential_matrix(small_tree, "transposed", make, collect,
                            workers=WORKER_COUNTS, expect_parallel=True)

    def test_matrix_with_recorder_and_potential(self, small_tree):
        make, collect = gravity_setup(small_tree, with_potential=True)
        differential_matrix(small_tree, "transposed", make, collect,
                            workers=WORKER_COUNTS, record=True, expect_parallel=True)

    def test_matrix_with_decomposition_chunking(self, small_tree):
        """Partition-steered chunks (the decomp.partitions reuse path), with
        the interaction lists compared as arrays."""
        pp = SfcDecomposer().assign(small_tree.particles, 4)
        decomp = decompose(small_tree, pp, n_subtrees=4)
        make, collect = gravity_setup(small_tree)
        for engine in ("transposed", "batched"):
            differential_matrix(small_tree, engine, make, collect,
                                workers=WORKER_COUNTS, decomposition=decomp,
                                record=True, expect_parallel=True)


class TestKNNDifferential:
    def test_matrix_three_worker_counts(self, small_tree):
        make, collect = knn_setup(k=6)
        base = differential_matrix(small_tree, "up-and-down", make, collect,
                                   workers=WORKER_COUNTS, expect_parallel=True)
        # and the serial oracle itself is right: one distance kernel and one
        # (dist, index) order, so equality with brute force is exact
        dist, index = brute_force_knn(small_tree.particles.position, 6)
        assert base.outputs["dist_sq"].tobytes() == dist.tobytes()
        assert base.outputs["index"].tobytes() == index.tobytes()

    def test_public_api_backend_kwarg(self, small_tree):
        serial = knn_search(small_tree, 5)
        for backend in ("threads", "processes"):
            for w in (2, 4):
                with get_backend(backend, workers=w) as b:
                    res = knn_search(small_tree, 5, backend=b)
                assert np.array_equal(res.dist_sq, serial.dist_sq)
                assert np.array_equal(res.index, serial.index)


class TestSPHDifferential:
    def test_density_bit_identical(self, small_tree):
        serial = compute_density_knn(small_tree, k=16)
        for backend in ("threads", "processes"):
            for w in WORKER_COUNTS:
                with get_backend(backend, workers=w) as b:
                    par = compute_density_knn(small_tree, k=16, backend=b)
                label = f"{backend}/w{w}"
                assert np.array_equal(par.h, serial.h), label
                assert np.array_equal(par.density, serial.density), label
                assert np.array_equal(
                    par.neighbors.index, serial.neighbors.index
                ), label


class TestCountVisitorOracle:
    def test_matches_brute_force(self, small_tree):
        base = run_combination(
            small_tree, "transposed",
            lambda t: CountInRadiusVisitor(t, 0.15),
            lambda v: {"counts": v.counts},
        )
        oracle = brute_force_radius_counts(small_tree.particles.position, 0.15)
        assert np.array_equal(base.outputs["counts"], oracle)


class TestBatchedEngineDifferential:
    """The level-synchronous batched engine joins the matrix (PR 10)."""

    def test_gravity_matrix(self, small_tree):
        make, collect = gravity_setup(small_tree, with_potential=True)
        differential_matrix(small_tree, "batched", make, collect,
                            workers=WORKER_COUNTS, expect_parallel=True)

    def test_count_visitor_matches_other_engines(self, small_tree):
        make = lambda t: CountInRadiusVisitor(t, 0.15)  # noqa: E731
        collect = lambda v: {"counts": v.counts}  # noqa: E731
        runs = {
            eng: run_combination(small_tree, eng, make, collect)
            for eng in ("transposed", "per-bucket", "batched")
        }
        for eng in ("per-bucket", "batched"):
            assert_equivalent(runs["transposed"], runs[eng])

    def test_gravity_allclose_across_engines(self, small_tree):
        # Float accumulation order differs between engines, so cross-engine
        # gravity is allclose, not bit-identical; counts stay exact.
        make, collect = gravity_setup(small_tree)
        rt = run_combination(small_tree, "transposed", make, collect)
        rb = run_combination(small_tree, "batched", make, collect)
        np.testing.assert_allclose(rb.outputs["accel"], rt.outputs["accel"],
                                   rtol=1e-12, atol=1e-14)
        assert rb.counts == rt.counts


    def test_quadrupole_leg_matrix_and_no_grouped_fallback(self, small_tree):
        """The quadrupole expansion has its own frontier kernel: bit-identical
        across backends and workers like the monopole leg, and equal to
        rounding under the transposed schedule, which hands the same kernel
        one source's pairs at a time.  (There is no grouped-by-source
        fallback left to fall into: the visitor has the pair form only.)"""
        make, collect = gravity_setup(small_tree, with_quadrupole=True)
        differential_matrix(small_tree, "batched", make, collect,
                            workers=WORKER_COUNTS, expect_parallel=True)
        rt = run_combination(small_tree, "transposed", make, collect)
        rb = run_combination(small_tree, "batched", make, collect)
        np.testing.assert_allclose(rb.outputs["accel"], rt.outputs["accel"],
                                   rtol=1e-11, atol=1e-13)
        assert rb.counts == rt.counts


@pytest.mark.slow
class TestFullMatrix:
    """The wide matrix: every engine × backend × worker count × dataset."""

    ENGINES = ("transposed", "per-bucket", "batched")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_gravity_engines(self, engine, small_tree, clustered_tree):
        for tree in (small_tree, clustered_tree):
            make, collect = gravity_setup(tree, with_potential=True)
            differential_matrix(tree, engine, make, collect,
                                workers=(1, 2, 3, 4), record=True,
                                expect_parallel=True)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_count_visitor_engines(self, engine, clustered_tree):
        make = lambda t: CountInRadiusVisitor(t, 0.4)  # noqa: E731
        collect = lambda v: {"counts": v.counts}  # noqa: E731
        base = differential_matrix(clustered_tree, engine, make, collect,
                                   workers=(1, 2, 3, 4), record=True,
                                   expect_parallel=True)
        oracle = brute_force_radius_counts(clustered_tree.particles.position, 0.4)
        assert np.array_equal(base.outputs["counts"], oracle)

    def test_knn_wide(self, clustered_tree):
        make, collect = knn_setup(k=8)
        differential_matrix(clustered_tree, "up-and-down", make, collect,
                            workers=(1, 2, 3, 4, 7), expect_parallel=True)

    def test_gravity_quadrupole(self, small_tree):
        make, collect = gravity_setup(small_tree, with_quadrupole=True)
        differential_matrix(small_tree, "transposed", make, collect,
                            workers=(2, 3, 4), expect_parallel=True)


class TestHypothesisDifferential:
    """Random trees and visitors through the same equivalence assertions."""

    @given(
        n=st.integers(30, 150),
        seed=st.integers(0, 2**31 - 1),
        radius=st.floats(0.05, 0.6),
        bucket=st.integers(4, 24),
        tree_type=st.sampled_from(["oct", "kd"]),
        workers=st.sampled_from([2, 3]),
    )
    @settings(max_examples=15, **HYPOTHESIS_COMMON)
    def test_threads_equals_serial_and_brute_force(
        self, n, seed, radius, bucket, tree_type, workers
    ):
        tree = build_tree(uniform_cube(n, seed=seed), tree_type=tree_type,
                          bucket_size=bucket)
        make = lambda t: CountInRadiusVisitor(t, radius)  # noqa: E731
        collect = lambda v: {"counts": v.counts}  # noqa: E731
        base = run_combination(tree, "transposed", make, collect)
        other = run_combination(tree, "transposed", make, collect,
                                backend="threads", workers=workers)
        assert_equivalent(base, other)
        oracle = brute_force_radius_counts(tree.particles.position, radius)
        assert np.array_equal(base.outputs["counts"], oracle)

    @given(
        n=st.integers(40, 120),
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(1, 10),
        workers=st.sampled_from([2, 4]),
    )
    @settings(max_examples=10, **HYPOTHESIS_COMMON)
    def test_knn_threads_equals_serial(self, n, seed, k, workers):
        tree = build_tree(clustered_clumps(n, seed=seed), tree_type="kd",
                          bucket_size=8)
        make, collect = knn_setup(k=min(k, tree.n_particles - 1))
        base = run_combination(tree, "up-and-down", make, collect)
        other = run_combination(tree, "up-and-down", make, collect,
                                backend="threads", workers=workers)
        assert_equivalent(base, other)

    @pytest.mark.slow
    @given(
        n=st.integers(50, 200),
        seed=st.integers(0, 2**31 - 1),
        radius=st.floats(0.1, 0.5),
    )
    @settings(max_examples=5, **HYPOTHESIS_COMMON)
    def test_processes_equals_serial(self, n, seed, radius):
        tree = build_tree(uniform_cube(n, seed=seed), tree_type="oct",
                          bucket_size=8)
        make = lambda t: CountInRadiusVisitor(t, radius)  # noqa: E731
        collect = lambda v: {"counts": v.counts}  # noqa: E731
        base = run_combination(tree, "transposed", make, collect)
        other = run_combination(tree, "transposed", make, collect,
                                backend="processes", workers=3)
        assert_equivalent(base, other)


class TestBatchedKernelsGolden:
    """Kernel-vs-scalar golden tests for repro.trees.kernels.

    A pure-Python loop states each pair's arithmetic in the kernels'
    operation order.  The gravity kernels must match it three ways: per-pair
    values in bits (one-item lists), each row's sum in bits when the loop's
    per-row vector is reduced in the stated order (``np.add.reduceat`` over
    the row's interaction list, in list order), and within the any-order
    bound of the exact (``fsum``) row sum.
    """

    @staticmethod
    def _layout(seed, max_items, n_rows=64, n_targets=12):
        """One target-major call: targets own consecutive row ranges and come
        in any order, each with 1-4 pairs of 1..max_items items.  Returns
        ``list_layout``'s arguments."""
        rng = np.random.default_rng(seed)
        inner = rng.choice(np.arange(1, n_rows), n_targets - 1, replace=False)
        edges = np.concatenate(([0], np.sort(inner), [n_rows]))
        targets = np.repeat(rng.permutation(n_targets), rng.integers(1, 5, size=n_targets))
        n_items = rng.integers(1, max_items + 1, size=targets.size)
        return targets, edges[targets], edges[targets + 1], n_items

    @staticmethod
    def _diagonal(n):
        """Pair k: target row k against item k — every list one item."""
        rows = np.arange(n)
        return rows, rows, rows + 1, np.ones(n, dtype=np.int64)

    @staticmethod
    def _points(layout, seed):
        """Target rows, items and G m for ``layout``; every 7th item sits
        exactly on the first row it meets (r = 0)."""
        _, tstart, tend, n_items = layout
        rng = np.random.default_rng(seed)
        target = rng.random((int(tend.max()), 3))
        source = rng.random((int(n_items.sum()), 3))
        met = np.repeat(tstart, n_items)
        source[::7] = target[met[::7]]
        return target, source, rng.random(source.shape[0])

    @staticmethod
    def _row_terms(layout, term):
        """``{row: [term(row, item), ...]}`` in list order: the row's pairs
        in pair order, each pair's items in order."""
        targets, tstart, tend, n_items = layout
        first = np.cumsum(n_items) - n_items
        terms = {}
        for p in range(targets.size):
            items = range(first[p], first[p] + n_items[p])
            for row in range(tstart[p], tend[p]):
                terms.setdefault(row, []).extend(term(row, k) for k in items)
        return terms

    @staticmethod
    def _check_rows(got, terms):
        """``got`` == each row's terms reduced by ``np.add.reduceat`` in list
        order, in bits; and within ``γ_{n-1} Σ|term|`` (any order of n
        terms, Higham §4.2) of the exact sum."""
        from math import fsum

        u = 2.0 ** -53
        got2 = got.reshape(got.shape[0], -1)
        want = np.zeros_like(got2)
        for row, values in terms.items():
            values = np.array(values, dtype=np.float64)
            n = values.shape[0]
            gamma = (n - 1) * u / (1 - (n - 1) * u)
            for c in range(values.shape[1]):
                want[row, c] += np.add.reduceat(values[:, c], [0])[0]
                exact = fsum(values[:, c])
                assert abs(got2[row, c] - exact) <= gamma * fsum(abs(values[:, c]))
        assert got2.tobytes() == want.tobytes()

    @staticmethod
    def _point_mass_term(target, source, gm, eps2, potential=False):
        from math import sqrt

        def term(row, k):
            d = [float(source[k, c]) - float(target[row, c]) for c in range(3)]
            r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
            if potential:
                return (-(gm[k] * (1.0 / sqrt(r2 + eps2) if r2 > 0.0 else 0.0)),)
            rs = r2 + eps2
            w = gm[k] / (rs * sqrt(rs)) if r2 > 0.0 else 0.0
            return tuple(dj * w for dj in d)
        return term

    def _check_point_masses(self, max_items, G, eps, seed, potential):
        from repro.trees.kernels import accumulate_point_masses, list_layout

        for layout in (self._layout(seed, max_items), self._diagonal(200)):
            target, source, mass = self._points(layout, seed + 1)
            gm = G * mass
            got = np.zeros(target.shape[0] if potential else target.shape)
            accumulate_point_masses(got, list_layout(*layout), target, source, gm, eps)
            self._check_rows(got, self._row_terms(
                layout, self._point_mass_term(target, source, gm, eps * eps, potential)))

    def test_mac_open_pairs_matches_scalar(self):
        from repro.geometry.box import point_box_distance_sq
        from repro.trees.kernels import mac_open_pairs

        rng = np.random.default_rng(1)
        lo = rng.random((300, 3))
        hi = lo + rng.random((300, 3))
        c = rng.random((300, 3)) * 2 - 0.5
        r2 = rng.random(300) * 0.2
        got = mac_open_pairs(lo, hi, c, r2)
        want = np.array([
            bool(point_box_distance_sq(lo[k], hi[k], c[k]) <= r2[k])
            for k in range(300)
        ])
        assert np.array_equal(got, want)

    def test_accumulate_monopole_matches_scalar_loop(self):
        """Node items (one per pair) into the acceleration."""
        self._check_point_masses(max_items=1, G=1.3, eps=1e-3, seed=0, potential=False)

    def test_accumulate_monopole_potential_matches_scalar_loop(self):
        """Node items into the potential, unsoftened (r = 0 guard)."""
        self._check_point_masses(max_items=1, G=1.0, eps=0.0, seed=3, potential=True)

    def test_accumulate_pp_matches_scalar_loop(self):
        """Leaf items (a leaf's particles per pair) into the acceleration and
        the potential; the self pairs contribute zero."""
        for potential in (False, True):
            self._check_point_masses(max_items=9, G=0.9, eps=1e-4, seed=7, potential=potential)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_dense_front_ends_share_the_frontier_kernels_pair_maths(self, eps):
        """One Plummer point mass: for any single (target, source) pair the
        dense front-ends (direct sum, FMM P2P) and the frontier kernel (the
        tree walk) write the same bytes — a call of many one-item lists and
        a call of one list alike; scales 1e-9 … 1e12, separations down to
        1e-6 of the scale, coincident points, ``(n, 3)`` and
        structure-of-arrays inputs."""
        from repro.apps.gravity import pairwise_accel, pairwise_potential
        from repro.trees.kernels import accumulate_point_masses, components, list_layout

        rng = np.random.default_rng(21)
        n, G = 2000, 1.3
        scale = 10.0 ** rng.uniform(-9, 12, size=(n, 1))
        t = rng.standard_normal((n, 3)) * scale
        s = t + rng.standard_normal((n, 3)) * scale * 10.0 ** rng.uniform(-6, 1, size=(n, 1))
        s[::25] = t[::25]
        m = rng.random(n) * scale[:, 0]
        gm = G * m
        diagonal = list_layout(*self._diagonal(n)[:3])
        accel, pot = np.zeros((n, 3)), np.zeros(n)
        accumulate_point_masses(accel, diagonal, t, s, gm, eps)
        accumulate_point_masses(pot, diagonal, components(t), components(s), gm, eps)
        assert np.isfinite(accel).all() and np.isfinite(pot).all()
        assert not accel[::25].any() and accel[1::25].all(axis=1).all()
        one_list = list_layout(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                                     np.ones(1, dtype=np.int64))
        differing = 0
        for k in range(n):
            one = slice(k, k + 1)
            alone = np.zeros((1, 3))
            accumulate_point_masses(alone, one_list, t[one], s[one], gm[one], eps)
            for form in (np.asarray, components):
                a = pairwise_accel(form(t[one]), form(s[one]), m[one], G, eps)
                phi = pairwise_potential(form(t[one]), form(s[one]), m[one], G, eps)
                differing += (a.tobytes() != accel[one].tobytes()
                              or a.tobytes() != alone.tobytes()
                              or phi.tobytes() != pot[one].tobytes())
        assert differing == 0

    def test_pairwise_kernels_match_scalar_loop(self):
        """The direct sum's own oracle, sharing no code with it: every pair
        term from a scalar loop in the stated operation order, a row's terms
        added exactly (``fsum``).  ``pairwise_accel`` adds the same terms in
        numpy's pairwise order, so it may differ from the exact sum by the
        any-order bound ``(ns - 1) u Σ|term|`` (u = 2⁻⁵³) plus one rounding of
        the result — nothing else; a single source leaves no sum, so bits."""
        from math import fsum, sqrt

        from repro.apps.gravity import pairwise_accel, pairwise_potential

        rng = np.random.default_rng(23)
        nt, ns, G, eps = 12, 300, 0.9, 1e-4
        src, mass = rng.random((ns, 3)), rng.random(ns)
        tgt = np.concatenate([src[:4], rng.random((nt - 4, 3))])   # 4 self pairs
        eps2, u = eps * eps, 2.0 ** -53
        for sources in (slice(0, ns), slice(5, 6), slice(2, 3)):
            got_a = pairwise_accel(tgt, src[sources], mass[sources], G, eps)
            got_p = pairwise_potential(tgt, src[sources], mass[sources], G, eps)
            for i in range(nt):
                terms = [[], [], [], []]
                for j in range(*sources.indices(ns)):
                    d = [float(src[j, c]) - float(tgt[i, c]) for c in range(3)]
                    r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
                    if r2 > 0.0:
                        rs = r2 + eps2
                        w = G * float(mass[j]) / (rs * sqrt(rs))
                        for c in range(3):
                            terms[c].append(d[c] * w)
                        terms[3].append(-G * float(mass[j]) * (1.0 / sqrt(rs)))
                got = [*got_a[i].tolist(), float(got_p[i])]
                for c in range(4):
                    exact = fsum(terms[c])
                    if len(terms[c]) <= 1:
                        assert got[c] == exact
                    else:
                        slack = (len(terms[c]) - 1) * u * fsum(abs(x) for x in terms[c])
                        assert abs(got[c] - exact) <= slack + u * abs(exact)

    @staticmethod
    def _quadrupoles(n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, 3, 3)) - 0.5
        q = a + a.transpose(0, 2, 1)
        return q - np.trace(q, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3.0

    @pytest.mark.parametrize("eps", [1e-3, 0.0])
    def test_accumulate_quadrupole_matches_scalar_loop(self, eps):
        """The quadrupole terms on node items, in the kernel's stated
        operation order (eps = 0 exercises the r = 0 guard on the coincident
        items), and the same expansion as the per-source
        ``quadrupole_accel`` the other engines use."""
        from math import sqrt

        from repro.trees.kernels import accumulate_point_masses, list_layout
        from tests.harness.gravity_reference import quadrupole_accel

        G, eps2 = 1.3, eps * eps
        for layout in (self._layout(11, max_items=1), self._diagonal(200)):
            target, center, mass = self._points(layout, seed=12)
            quad = self._quadrupoles(mass.size, seed=13)
            got = np.zeros(target.shape)
            accumulate_point_masses(got, list_layout(*layout), target, center, G * mass, eps,
                                    quad, G)

            def term(row, k):
                d = [float(center[k, c]) - float(target[row, c]) for c in range(3)]
                r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2
                inv_r2 = 1.0 / r2 if r2 > 0.0 else 0.0
                inv_r3 = inv_r2 * sqrt(inv_r2)
                inv_r5 = inv_r3 * inv_r2
                inv_r7 = inv_r5 * inv_r2
                q = quad[k].tolist()
                qd = [q[j][0] * d[0] + q[j][1] * d[1] + q[j][2] * d[2] for j in range(3)]
                dqd = d[0] * qd[0] + d[1] * qd[1] + d[2] * qd[2]
                mono = (G * float(mass[k])) * inv_r3
                stretch = 2.5 * (dqd * inv_r7)
                return tuple(mono * d[j] + G * (stretch * d[j] - qd[j] * inv_r5)
                             for j in range(3))

            self._check_rows(got, self._row_terms(layout, term))
            loose = np.zeros(target.shape)
            for row, values in self._row_terms(layout, lambda row, k: [quadrupole_accel(
                    target[row], center[k], mass[k], quad[k], G, eps)[0]]).items():
                loose[row] = np.sum(values, axis=0)
            np.testing.assert_allclose(got, loose, rtol=1e-10, atol=1e-12)

    def test_kernels_accept_components_and_views(self):
        """Structure-of-arrays inputs and a row-range view of the output give
        the same bytes as ``(n, 3)`` / ``(n, 3, 3)`` inputs and the whole
        output."""
        from repro.trees.kernels import (accumulate_point_masses, components, list_layout,
                                         mac_open_pairs, symmetric_components)

        rng = np.random.default_rng(2)
        pos, center, mass = rng.random((400, 3)), rng.random((400, 3)), rng.random(400)
        assert np.array_equal(
            mac_open_pairs(pos, pos + 0.1, center, mass * 0.1),
            mac_open_pairs(components(pos), components(pos + 0.1), components(center),
                           mass * 0.1))

        targets, tstart, tend, n_items = self._layout(4, max_items=5)
        target, source, gm = self._points((targets, tstart, tend, n_items), seed=5)
        quad = self._quadrupoles(gm.size, seed=6)
        padded = np.concatenate([np.ones((10, 3)), target, np.ones((6, 3))])
        for whole_quad, view_quad in ((None, None), (quad, symmetric_components(quad))):
            whole = np.zeros((80, 3))
            accumulate_point_masses(whole, list_layout(targets, tstart + 10, tend + 10, n_items),
                                    padded, source, gm, 1e-3, whole_quad, 1.1)
            view = np.zeros((80, 3))
            accumulate_point_masses(view[10:74], list_layout(targets, tstart, tend, n_items),
                                    [c[10:74] for c in components(padded)], components(source),
                                    gm, 1e-3, view_quad, 1.1)
            assert view.tobytes() == whole.tobytes()

    def test_pair_dist_sq_matches_scalar_loop(self):
        from repro.trees.kernels import components, pair_dist_sq

        rng = np.random.default_rng(9)
        positions = rng.random((40, 3))
        a = rng.integers(0, 40, size=200)
        b = rng.integers(0, 40, size=200)
        want = np.empty(200)
        for k in range(200):
            dx, dy, dz = (positions[a[k]] - positions[b[k]]).tolist()
            want[k] = dx * dx + dy * dy + dz * dz
        assert pair_dist_sq(positions, a, b).tobytes() == want.tobytes()
        assert pair_dist_sq(components(positions), a, b).tobytes() == want.tobytes()
        every = np.arange(40)
        assert np.array_equal(pair_dist_sq(positions, every[:, None], every[None, :])[a, b], want)

    @staticmethod
    def _merge_matches_sorted_lists(positions, pairs, k, cuts, queries=None):
        """Run ``merge_nearest`` over ``pairs`` (``((t0, t1), (s0, s1))``
        ranges) in the calls ``cuts`` delimits and compare every row with a
        Python list of the ``(dist, index)`` tuples it was offered, sorted;
        ``first`` and ``radius_sq`` of each call are checked on the way."""
        from repro.trees.kernels import merge_nearest, pair_dist_sq

        seen = {}
        for (t0, t1), (s0, s1) in pairs:
            for t in range(t0, t1):
                d2 = pair_dist_sq(positions, np.full(s1 - s0, t), np.arange(s0, s1), queries)
                seen.setdefault(t, []).extend((d, s) for d, s in zip(d2.tolist(), range(s0, s1))
                                              if queries is not None or s != t)
        n_rows = len(positions if queries is None else queries)
        dist_sq = np.full((n_rows, k), np.inf)
        index = np.full((n_rows, k), -1, dtype=np.int64)
        tstart, tend, sstart, send = (np.array(c, dtype=np.int64)
                                      for c in zip(*((*t, *s) for t, s in pairs)))
        for a, b in zip(cuts, cuts[1:]):
            first, radius_sq = merge_nearest(dist_sq, index, positions, tstart[a:b],
                                             tend[a:b], sstart[a:b], send[a:b], queries)
            runs = [p for p in range(a, b) if p == a or tstart[p] != tstart[p - 1]]
            assert first.tolist() == [p - a for p in runs]
            assert radius_sq.tolist() == [dist_sq[tstart[p]:tend[p], -1].max() for p in runs]
        for t in range(n_rows):
            best = sorted(seen.get(t, []))[:k]
            pad = k - len(best)
            assert dist_sq[t].tolist() == [d for d, _ in best] + [np.inf] * pad, t
            assert index[t].tolist() == [s for _, s in best] + [-1] * pad, t

    def test_merge_nearest_matches_sorted_lists(self):
        """The k-nearest merge against per-row Python lists of ``(dist, index)``
        tuples kept sorted — on a lattice, so most distances tie — whatever
        way the candidate pairs are batched into calls; and on the ties an
        order by distance alone gets wrong."""
        rng = np.random.default_rng(13)
        lattice = rng.integers(0, 3, size=(60, 3)).astype(float)
        # three target buckets, each offered several candidate ranges
        pairs = [(t, s) for t in ((0, 7), (7, 8), (20, 31))
                 for s in ((40, 60), (0, 9), (9, 9), (25, 40), (9, 25))]
        for cuts in ([0, 15], [0, 5, 10, 15], [0, 10, 15]):
            self._merge_matches_sorted_lists(lattice, pairs, 5, cuts)

        # row 0 at the origin; squared distances 1, 2, 2, 3 by design
        far = np.full((12, 3), 10.0)
        far[0] = 0.0
        far[[5, 9, 3, 1, 6, 7]] = [(1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 0), (0, 1, 1),
                                   (1, 1, 1)]
        # a row's k-th entry (2, 6) and a later candidate (2, 1): the
        # smaller index takes the k-th place
        self._merge_matches_sorted_lists(far, [((0, 1), (5, 7)), ((0, 1), (1, 2))], 2, [0, 1, 2])
        # a tie at places k-1 / k inside one call, the larger index offered first
        tie_inside = [((0, 1), (9, 10)), ((0, 1), (3, 4)), ((0, 1), (5, 6)), ((0, 1), (7, 8))]
        for cuts in ([0, 4], [0, 2, 4]):
            self._merge_matches_sorted_lists(far, tie_inside, 3, cuts)
        # every candidate coincident: the k smallest other indices, in order
        same = np.full((12, 3), 0.5)
        pairs = [(t, s) for t in ((0, 4), (4, 8), (8, 9), (9, 12))
                 for s in ((8, 12), (4, 8), (0, 4))]
        for cuts in ([0, 12], [0, 3, 6, 9, 12], list(range(13))):
            self._merge_matches_sorted_lists(same, pairs, 3, cuts)
            self._merge_matches_sorted_lists(same, pairs, 11, cuts)

    @given(st.data())
    @settings(max_examples=60, **HYPOTHESIS_COMMON)
    def test_merge_nearest_property_on_lattices(self, data):
        """Random lattice points, random buckets (one-row ones included),
        each target offered a random subset of the source leaves in a random
        order, random call cuts, own rows or query points: the merge equals
        the sorted-tuple reference."""
        n = data.draw(st.integers(2, 40), label="n")
        side = data.draw(st.integers(1, 3), label="side")
        k = data.draw(st.integers(1, 8), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def ranges(size):
            cuts = np.unique(rng.integers(1, size, size=rng.integers(0, size))) if size > 1 else []
            edges = [0, *cuts.tolist(), size] if len(cuts) else [0, size]
            return list(zip(edges, edges[1:]))

        positions = rng.integers(0, side, size=(n, 3)).astype(float)
        queries = None
        if data.draw(st.booleans(), label="query points"):
            queries = rng.integers(0, side, size=(int(rng.integers(1, 12)), 3)).astype(float)
            targets = [(q, q + 1) for q in range(len(queries))]
        else:
            targets = ranges(n)
        leaves = ranges(n)
        pairs = [(t, leaves[i]) for t in targets for i in rng.permutation(len(leaves))
                 if rng.random() < 0.8]
        if not pairs:
            return
        inner = np.unique(rng.integers(1, len(pairs), size=rng.integers(0, len(pairs)))) \
            if len(pairs) > 1 else np.array([], dtype=int)
        self._merge_matches_sorted_lists(positions, pairs, k, [0, *inner.tolist(), len(pairs)],
                                         queries)

    def test_expand_pair_products_matches_nested_loops(self):
        from repro.trees.kernels import expand_pair_products

        ts, te = np.array([0, 5, 5, 9]), np.array([3, 5, 9, 12])
        ss, se = np.array([2, 0, 7, 0]), np.array([4, 3, 7, 1])
        t_rows, s_rows = expand_pair_products(ts, te, ss, se)
        want_t, want_s = [], []
        for p in range(len(ts)):
            for t in range(ts[p], te[p]):
                for s in range(ss[p], se[p]):
                    want_t.append(t)
                    want_s.append(s)
        assert t_rows.tolist() == want_t
        assert s_rows.tolist() == want_s

    def test_batched_gravity_uses_kernels_consistently(self, small_tree):
        """End-to-end: the batched engine's gravity equals a re-run of
        itself (determinism) and the transposed engine within tolerance."""
        make, collect = gravity_setup(small_tree, with_potential=True)
        r1 = run_combination(small_tree, "batched", make, collect)
        r2 = run_combination(small_tree, "batched", make, collect)
        assert r1.outputs["accel"].tobytes() == r2.outputs["accel"].tobytes()
        rt = run_combination(small_tree, "transposed", make, collect)
        np.testing.assert_allclose(r1.outputs["accel"], rt.outputs["accel"],
                                   rtol=1e-12, atol=1e-14)
