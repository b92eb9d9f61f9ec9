"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.gravity import CentroidData
from repro.core import accumulate_data, ranges_to_indices, segment_sums
from repro.geometry import (
    Box3,
    MORTON_MAX_COORD,
    morton_encode,
    morton_keys,
)
from repro.particles import ParticleSet
from repro.trees import build_tree, check_tree_invariants

from tests.harness.sfc_decode import hilbert_decode, morton_decode

# Shared strategies -----------------------------------------------------------

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def point_clouds(min_n=2, max_n=120):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(3)),
        elements=finite_coords,
    )


grid_coords = arrays(
    np.uint64, st.integers(1, 200), elements=st.integers(0, MORTON_MAX_COORD)
)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMortonProperties:
    @given(ix=grid_coords, iy=grid_coords, iz=grid_coords)
    @settings(max_examples=50, **COMMON)
    def test_roundtrip(self, ix, iy, iz):
        n = min(len(ix), len(iy), len(iz))
        ix, iy, iz = ix[:n], iy[:n], iz[:n]
        dx, dy, dz = morton_decode(morton_encode(ix, iy, iz))
        assert np.array_equal(ix, dx)
        assert np.array_equal(iy, dy)
        assert np.array_equal(iz, dz)

    @given(ix=grid_coords)
    @settings(max_examples=30, **COMMON)
    def test_monotone_in_each_axis(self, ix):
        """Fixing two coordinates, the key is strictly monotone in the third."""
        ix = np.sort(np.unique(ix))
        if len(ix) < 2:
            return
        zero = np.zeros(len(ix), dtype=np.uint64)
        for args in [(ix, zero, zero), (zero, ix, zero), (zero, zero, ix)]:
            k = morton_encode(*args).astype(np.int64)
            assert np.all(np.diff(k) > 0)

    @given(pts=point_clouds())
    @settings(max_examples=30, **COMMON)
    def test_keys_respect_octants(self, pts):
        """Particles in the low half of x never sort after the entire high
        half when y,z agree — weaker property: keys are identical iff grid
        cells are identical."""
        box = Box3.from_points(pts).cubified()
        if box.is_empty or np.any(box.size == 0):
            return
        keys = morton_keys(pts, box)
        from repro.geometry import normalize_to_grid

        grid = normalize_to_grid(pts, box)
        _, first_idx = np.unique(grid, axis=0, return_index=True)
        same_cell = len(pts) - len(first_idx)
        assert len(np.unique(keys)) == len(pts) - same_cell


class TestBoxProperties:
    @given(pts=point_clouds())
    @settings(max_examples=50, **COMMON)
    def test_bounding_box_contains_all(self, pts):
        box = Box3.from_points(pts)
        assert np.all(pts >= box.lo) and np.all(pts <= box.hi)

    @given(pts=point_clouds(), q=arrays(np.float64, 3, elements=finite_coords))
    @settings(max_examples=50, **COMMON)
    def test_distance_lower_bounds_point_distances(self, pts, q):
        """dist(box, q) <= min distance from q to any contained point."""
        box = Box3.from_points(pts)
        d_box = box.distance_sq(q)
        d_min = np.min(np.einsum("ij,ij->i", pts - q, pts - q))
        assert d_box <= d_min + 1e-6 * max(d_min, 1.0)


class TestTreeProperties:
    @given(pts=point_clouds(min_n=3, max_n=150), data=st.data())
    @settings(max_examples=25, **COMMON)
    def test_invariants_random_clouds(self, pts, data):
        tree_type = data.draw(st.sampled_from(["oct", "kd", "longest"]))
        bucket = data.draw(st.integers(1, 12))
        tree = build_tree(ParticleSet(pts), tree_type=tree_type, bucket_size=bucket)
        check_tree_invariants(tree)

    @given(pts=point_clouds(min_n=3, max_n=100))
    @settings(max_examples=25, **COMMON)
    def test_data_accumulation_mass_conservation(self, pts):
        p = ParticleSet(pts, mass=np.abs(pts[:, 0]) + 1.0)
        tree = build_tree(p, tree_type="kd", bucket_size=4)
        accumulated = accumulate_data(tree, CentroidData)
        assert accumulated[0].sum_mass == pytest.approx(p.mass.sum(), rel=1e-12)

    @given(masses=arrays(np.float64, st.integers(1, 40),
                         elements=st.floats(0.1, 10.0)))
    @settings(max_examples=30, **COMMON)
    def test_data_combine_order_independent(self, masses):
        """+= over any grouping of leaf Data gives the same totals (the
        associativity the leaves-to-root sweep relies on)."""
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(len(masses), 3))
        p = ParticleSet(pos, mass=masses)
        tree = build_tree(p, tree_type="kd", bucket_size=2)
        parts = [CentroidData.from_leaf(tree.node(int(l))) for l in tree.leaf_indices]
        forward, backward = CentroidData.empty(), CentroidData.empty()
        for a, b in zip(parts, parts[::-1]):
            forward += a
            backward += b
        assert forward.sum_mass == pytest.approx(backward.sum_mass, rel=1e-12)
        assert np.allclose(forward.moment, backward.moment, rtol=1e-9)


class TestUtilProperties:
    @given(data=st.data())
    @settings(max_examples=50, **COMMON)
    def test_ranges_to_indices_matches_naive(self, data):
        n = data.draw(st.integers(0, 20))
        starts, ends = [], []
        for _ in range(n):
            s = data.draw(st.integers(0, 1000))
            e = s + data.draw(st.integers(0, 30))
            starts.append(s)
            ends.append(e)
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        got = ranges_to_indices(starts, ends)
        want = (
            np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
            if n
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(got, want)

    @given(
        values=arrays(np.float64, st.integers(1, 200), elements=st.floats(-100, 100)),
        data=st.data(),
    )
    @settings(max_examples=50, **COMMON)
    def test_segment_sums_matches_naive(self, values, data):
        n_ranges = data.draw(st.integers(1, 10))
        starts, ends = [], []
        for _ in range(n_ranges):
            s = data.draw(st.integers(0, len(values)))
            e = data.draw(st.integers(s, len(values)))
            starts.append(s)
            ends.append(e)
        got = segment_sums(values, np.array(starts), np.array(ends))
        for k in range(n_ranges):
            assert got[k] == pytest.approx(values[starts[k]:ends[k]].sum(), abs=1e-7)


class TestKnnProperties:
    @given(pts=point_clouds(min_n=6, max_n=80), data=st.data())
    @settings(max_examples=15, **COMMON)
    def test_knn_matches_brute_force(self, pts, data):
        from repro.apps.knn import brute_force_knn, knn_search

        k = data.draw(st.integers(1, min(5, len(pts) - 1)))
        tree = build_tree(ParticleSet(pts), tree_type="kd", bucket_size=4)
        res = knn_search(tree, k)
        bf_d, _ = brute_force_knn(tree.particles.position, k)
        assert np.allclose(res.dist_sq, bf_d, rtol=1e-9, atol=1e-9)


class TestMemsimProperties:
    @given(
        addrs=arrays(np.int64, st.integers(1, 300), elements=st.integers(0, 500)),
        ways=st.integers(1, 8),
    )
    @settings(max_examples=30, **COMMON)
    def test_bigger_cache_never_misses_more(self, addrs, ways):
        """Miss count is monotone non-increasing in associativity x size for
        LRU (stack property)."""
        from repro.memsim import CacheLevel

        small = CacheLevel("s", 64 * ways * 4, ways, 64)
        big = CacheLevel("b", 64 * ways * 8, ways * 2, 64)
        for a in addrs:
            small.access_line(int(a), False)
            big.access_line(int(a), False)
        assert big.stats.load_misses <= small.stats.load_misses

    @given(addrs=arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 100)))
    @settings(max_examples=30, **COMMON)
    def test_repeat_trace_all_hits_when_fits(self, addrs):
        from repro.memsim import CacheLevel

        unique = len(np.unique(addrs))
        c = CacheLevel("c", 64 * 256, 256, 64)  # fully associative, 256 lines
        for a in addrs:
            c.access_line(int(a), False)
        first_misses = c.stats.load_misses
        assert first_misses == unique
        for a in addrs:
            c.access_line(int(a), False)
        assert c.stats.load_misses == unique  # second pass free


class TestDesProperties:
    @given(
        services=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=30),
        workers=st.integers(1, 8),
    )
    @settings(max_examples=40, **COMMON)
    def test_makespan_bounds(self, services, workers):
        """Greedy pool scheduling: max(total/w, longest) <= makespan <=
        total/w + longest."""
        from repro.runtime import Simulator, WorkerPool

        sim = Simulator()
        pool = WorkerPool(sim, workers)
        for s in services:
            pool.submit(s)
        end = sim.run()
        total = sum(services)
        longest = max(services)
        assert end >= max(total / workers, longest) - 1e-9
        assert end <= total / workers + longest + 1e-9


class TestHilbertProperties:
    @given(start=st.integers(0, (1 << 62) - 3000), n=st.integers(2, 400))
    @settings(max_examples=25, **COMMON)
    def test_consecutive_cells_adjacent(self, start, n):
        """Any window of consecutive Hilbert keys decodes to a path of
        face-adjacent grid cells."""
        ks = np.arange(n, dtype=np.uint64) + np.uint64(start)
        x, y, z = hilbert_decode(ks)
        step = (
            np.abs(np.diff(x.astype(np.int64)))
            + np.abs(np.diff(y.astype(np.int64)))
            + np.abs(np.diff(z.astype(np.int64)))
        )
        assert np.all(step == 1)

    @given(data=st.data())
    @settings(max_examples=25, **COMMON)
    def test_roundtrip(self, data):
        from repro.geometry import hilbert_encode

        n = data.draw(st.integers(1, 200))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        ix = rng.integers(0, MORTON_MAX_COORD + 1, n, dtype=np.uint64)
        iy = rng.integers(0, MORTON_MAX_COORD + 1, n, dtype=np.uint64)
        iz = rng.integers(0, MORTON_MAX_COORD + 1, n, dtype=np.uint64)
        dx, dy, dz = hilbert_decode(hilbert_encode(ix, iy, iz))
        assert np.array_equal(ix, dx) and np.array_equal(iy, dy) and np.array_equal(iz, dz)


class TestPairCountProperties:
    @given(pts=point_clouds(min_n=4, max_n=60), data=st.data())
    @settings(max_examples=15, **COMMON)
    def test_dual_tree_matches_brute_force(self, pts, data):
        from repro.apps.correlation import brute_force_pair_counts, pair_counts

        scale = float(np.abs(pts).max() or 1.0)
        n_bins = data.draw(st.integers(1, 5))
        edges = np.linspace(0.01 * scale + 1e-9, 3.0 * scale + 1.0, n_bins + 1)
        counts, _, _ = pair_counts(ParticleSet(pts), edges, bucket_size=4)
        assert np.array_equal(counts, brute_force_pair_counts(pts, edges))

    @given(pts=point_clouds(min_n=3, max_n=50))
    @settings(max_examples=15, **COMMON)
    def test_total_pairs_bound(self, pts):
        from repro.apps.correlation import pair_counts

        edges = np.array([0.0, 1e9])
        counts, _, _ = pair_counts(ParticleSet(pts), edges, bucket_size=4)
        assert counts.sum() == len(pts) * (len(pts) - 1)


class TestBallSearchProperties:
    @given(pts=point_clouds(min_n=4, max_n=70), data=st.data())
    @settings(max_examples=10, **COMMON)
    def test_matches_brute_force(self, pts, data):
        from repro.apps.knn import ball_search, brute_force_ball

        scale = float(np.abs(pts).max() or 1.0)
        radius = data.draw(st.floats(0.01, 1.0)) * scale
        tree = build_tree(ParticleSet(pts), tree_type="kd", bucket_size=4)
        lists, _ = ball_search(tree, radius)
        expect = brute_force_ball(tree.particles.position, radius)
        for got, want in zip(lists, expect):
            assert set(got.tolist()) == set(want.tolist())


class TestFoFProperties:
    @given(pts=point_clouds(min_n=4, max_n=60), data=st.data())
    @settings(max_examples=10, **COMMON)
    def test_partition_matches_brute_force(self, pts, data):
        from repro.apps.fof import brute_force_fof, friends_of_friends

        scale = float(np.abs(pts).max() or 1.0)
        ll = data.draw(st.floats(0.01, 0.5)) * scale + 1e-9
        tree = build_tree(ParticleSet(pts), tree_type="oct", bucket_size=4)
        res = friends_of_friends(tree, linking_length=ll)
        bf = brute_force_fof(tree.particles.position, ll)
        # same partition structure: bijection between label sets
        pairs = set(zip(res.labels.tolist(), bf.tolist()))
        assert len(pairs) == len(set(res.labels.tolist()))
        assert len(pairs) == len(set(bf.tolist()))
