"""Cache-hierarchy simulator: LRU mechanics, hierarchy walk, trace replay."""

import numpy as np
import pytest

from repro.memsim import (
    CacheHierarchy,
    CacheLevel,
    DataLayout,
    MemoryTraceRecorder,
    profile_traversal_style,
    replay_trace,
    skx_hierarchy,
)
from repro.memsim.trace import interleave_traces
from repro.particles import uniform_cube
from repro.trees import build_tree

from tests.harness.differential import list_bytes


class TestCacheLevel:
    def test_cold_miss_then_hit(self):
        c = CacheLevel("L1", 1024, 2, 64)
        assert not c.access_line(0, False)
        assert c.access_line(0, False)
        assert c.stats.load_accesses == 2
        assert c.stats.load_misses == 1

    def test_lru_eviction(self):
        # 1024 B / 2 ways / 64 B lines -> 8 sets; lines 0, 8, 16 share set 0
        c = CacheLevel("L1", 1024, 2, 64)
        c.access_line(0, False)
        c.access_line(8, False)
        c.access_line(16, False)  # evicts 0 (LRU)
        assert not c.access_line(0, False)
        assert c.access_line(16, False)

    def test_lru_updated_on_hit(self):
        c = CacheLevel("L1", 1024, 2, 64)
        c.access_line(0, False)
        c.access_line(8, False)
        c.access_line(0, False)   # 0 becomes MRU
        c.access_line(16, False)  # evicts 8, not 0
        assert c.access_line(0, False)
        assert not c.access_line(8, False)

    def test_store_counters(self):
        c = CacheLevel("L1", 1024, 2, 64)
        c.access_line(0, True)
        c.access_line(0, True)
        assert c.stats.store_accesses == 2
        assert c.stats.store_misses == 1
        assert c.stats.store_miss_rate == 0.5
        assert c.stats.load_miss_rate == 0.0

    def test_capacity_exact(self):
        """A working set exactly the cache size never misses after warmup."""
        c = CacheLevel("L1", 4096, 4, 64)  # 64 lines
        for rep in range(3):
            for line in range(64):
                c.access_line(line, False)
        assert c.stats.load_misses == 64  # only cold misses

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheLevel("L1", 1000, 3, 64)

    def test_contents_and_reset(self):
        c = CacheLevel("L1", 1024, 2, 64)
        c.access_line(5, False)
        assert 5 in c.contents()
        c.reset()
        assert c.contents() == set()
        assert c.stats.accesses == 0


class TestHierarchy:
    def test_miss_cascades(self):
        h = CacheHierarchy(1, l1=(1024, 2), l2=(4096, 4), l3=(16384, 8))
        h.access(0, 100, False)
        st = h.stats()
        assert st.l1.load_misses == 1
        assert st.l2.load_misses == 1
        assert st.l3.load_misses == 1
        h.access(0, 100, False)  # L1 hit: lower levels untouched
        st = h.stats()
        assert st.l1.load_accesses == 2
        assert st.l2.load_accesses == 1

    def test_l2_hit_after_l1_eviction(self):
        h = CacheHierarchy(1, l1=(1024, 2), l2=(65536, 4), l3=(262144, 8))
        for line in range(64):  # blow L1 (16 lines), stay within L2
            h.access(0, line, False)
        h.access(0, 0, False)  # L1 miss, L2 hit
        st = h.stats()
        assert st.l2.load_accesses == 65
        assert st.l2.load_misses == 64

    def test_shared_l3_private_l1(self):
        h = CacheHierarchy(2, l1=(1024, 2), l2=(4096, 4), l3=(16384, 8))
        h.access(0, 7, False)
        h.access(1, 7, False)  # other CPU: private L1/L2 miss, shared L3 hit
        st = h.stats()
        assert st.l1.load_misses == 2
        assert st.l3.load_accesses == 2
        assert st.l3.load_misses == 1

    def test_skx_geometry(self):
        h = skx_hierarchy(2)
        assert h.l1s[0].size_bytes == 32 * 1024
        assert h.l2s[0].size_bytes == 1024 * 1024
        assert h.l3.ways == 11
        assert h.l3.size_bytes == 33 * 1024 * 1024


class TestDataLayout:
    def test_regions_disjoint(self):
        lay = DataLayout()
        n = lay.node_lines(np.array([0, 1, 2]))
        p = lay.pos_lines(np.array([0]), np.array([100]))
        a = lay.acc_lines(np.array([0]), np.array([100]))
        m = lay.mass_lines(np.array([0]), np.array([100]))
        sets = [set(x.tolist()) for x in (n, p, a, m)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert sets[i].isdisjoint(sets[j])

    def test_node_lines_two_per_node(self):
        lay = DataLayout()  # 128 B nodes on 64 B lines
        lines = lay.node_lines(np.array([3]))
        assert len(lines) == 2

    def test_span_lines_contiguous(self):
        lay = DataLayout()
        lines = lay.pos_lines(np.array([0]), np.array([64]))  # 64 * 24 B = 1536 B
        assert len(lines) == 24
        assert np.all(np.diff(np.sort(lines)) == 1)

    def test_empty_span(self):
        lay = DataLayout()
        assert len(lay.pos_lines(np.array([5]), np.array([5]))) == 0


class TestTraceAndProfile:
    def test_interleave_round_robin(self):
        a = (np.arange(5), np.zeros(5, bool))
        b = (np.arange(100, 103), np.ones(3, bool))
        addrs, writes, cpus = interleave_traces([a, b], chunk=2)
        assert len(addrs) == 8
        assert addrs[:2].tolist() == [0, 1]
        assert addrs[2:4].tolist() == [100, 101]
        assert cpus[:2].tolist() == [0, 0] and cpus[2:4].tolist() == [1, 1]

    def test_recorder_produces_trace(self):
        tree = build_tree(uniform_cube(300, seed=1), tree_type="oct", bucket_size=8)
        from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
        from repro.core import get_traverser

        rec = MemoryTraceRecorder(tree, "transposed")
        visitor = GravityVisitor(tree, compute_centroid_arrays(tree))
        get_traverser("transposed").traverse(tree, visitor, None, rec)
        addrs, writes = rec.trace()
        assert len(addrs) == rec.n_accesses > 0
        assert writes.dtype == bool and writes.any() and not writes.all()

    def test_max_accesses_truncation(self):
        h = skx_hierarchy(1)
        addrs = np.arange(1000)
        writes = np.zeros(1000, bool)
        replay_trace(h, addrs, writes, max_accesses=100)
        assert h.stats().l1.accesses == 100

    def test_profile_table2_directions(self):
        """The Table II headline at test scale: the transposed style does
        fewer accesses and less estimated runtime than per-bucket."""
        tree = build_tree(uniform_cube(2500, seed=2), tree_type="oct", bucket_size=16)
        t = profile_traversal_style(tree, "transposed", n_cpus=1, cache_scale=16,
                                    buckets_per_partition=48)
        b = profile_traversal_style(tree, "per-bucket", n_cpus=1, cache_scale=16,
                                    buckets_per_partition=48)
        assert t.n_accesses < b.n_accesses
        assert t.runtime_estimate_s < b.runtime_estimate_s

    def test_profile_multi_cpu_divides_runtime(self):
        tree = build_tree(uniform_cube(1200, seed=3), tree_type="oct", bucket_size=16)
        one = profile_traversal_style(tree, "transposed", n_cpus=1, cache_scale=16)
        four = profile_traversal_style(tree, "transposed", n_cpus=4, cache_scale=16)
        assert four.runtime_estimate_s < one.runtime_estimate_s


class TestTraceEdgeCases:
    def test_scratch_window_wraps(self):
        from repro.memsim.trace import _SCRATCH_LINES, MemoryTraceRecorder
        from repro.particles import ParticleSet

        tree = build_tree(
            ParticleSet(np.random.default_rng(0).uniform(0, 1, (100, 3))),
            tree_type="kd", bucket_size=8,
        )
        rec = MemoryTraceRecorder(tree, "transposed")
        lines1 = rec._scratch(10)
        lines2 = rec._scratch(_SCRATCH_LINES)
        # the window is bounded: all addresses fall in one small region
        all_lines = np.concatenate([lines1, lines2])
        assert all_lines.max() - all_lines.min() < _SCRATCH_LINES

    def test_large_stride_objects_cover_all_lines(self):
        from repro.memsim.trace import DataLayout

        lay = DataLayout(node_stride=256)  # 4 lines per node
        lines = lay.node_lines(np.array([1]))
        assert len(lines) == 4
        assert np.all(np.diff(np.sort(lines)) == 1)

    def test_interleave_empty_traces(self):
        from repro.memsim.trace import interleave_traces

        addrs, writes, cpus = interleave_traces([])
        assert len(addrs) == len(writes) == len(cpus) == 0

    def test_interleave_uneven_lengths(self):
        from repro.memsim.trace import interleave_traces

        a = (np.arange(10), np.zeros(10, bool))
        b = (np.arange(100, 103), np.ones(3, bool))
        addrs, writes, cpus = interleave_traces([a, b], chunk=4)
        assert len(addrs) == 13
        # the shorter trace ends; the longer one keeps going alone
        assert addrs[-1] == 9
        assert set(np.unique(cpus)) == {0, 1}

    def test_style_changes_volume(self):
        """The same pairs traced as per-bucket steps (one target each, its
        tree data re-read per target) touch strictly more lines than as the
        transposed schedule's steps (one source against a target batch)."""
        from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
        from repro.core import get_traverser
        from repro.memsim.trace import MemoryTraceRecorder
        from repro.particles import uniform_cube

        tree = build_tree(uniform_cube(600, seed=4), tree_type="oct", bucket_size=8)
        arrays = compute_centroid_arrays(tree)
        engine = get_traverser("transposed")
        volumes = {}
        for style in ("transposed", "per-bucket"):
            rec = MemoryTraceRecorder(tree, style)
            engine.traverse(tree, GravityVisitor(tree, arrays), tree.leaf_indices[:24], rec)
            volumes[style] = rec.n_accesses
        assert volumes["per-bucket"] > volumes["transposed"]


class TestOrderingContract:
    """What memsim Table II, the DES and Fig 10 read off the two reference
    orderings: the event stream a recorder sees, in order.  The ``trace``
    digests and Table II rows were recorded at the last commit where
    ``per-bucket`` and ``transposed`` were engines with hook families of
    their own (PR 15); they are schedules over the pair hooks now and must
    still deliver the same stream.  The ``lists`` digests hash the
    interaction lists' arrays (targets, offsets and sources of each kind);
    they were restated once, when the lists moved from per-target dicts to
    arrays, as the hash of the dict lists of that commit converted to
    arrays — not regenerated from the new code."""

    PINS = {
        "transposed": {
            "trace": "8bb5548154b604923e16d9f9198aa16c6ac2253cfb6464223ee8c3766f12abaf",
            "lists": "3f7a32d8b0b82230b2eba414356dfd1c0dd412d28f51444c459ec79324d75a1f",
            "table2": {
                "l1_load_miss_rate": 0.026940580456809204,
                "l1_loads": 46584,
                "l1_stores": 13540,
                "l1l2_store_miss_rate": 0.009453471196454948,
                "l2_load_miss_rate": 0.7633466135458168,
                "l3_load_miss_rate": 0.592901878914405,
                "l3_store_miss_rate": 0.5,
                "n_accesses": 60124,
                "n_cpus": 2,
                "runtime_estimate_s": 9.24504761904762e-05,
                "style": "transposed",
            },
        },
        "per-bucket": {
            "trace": "8bf2acfbc574592236d70b906cb3ed05fd2ba9b93ce6481682ecb5d170c1cd06",
            "lists": "f04028e3ae6764308c5b58cfabc1581aa4716799744f974ee6728eccdaef9fe4",
            "table2": {
                "l1_load_miss_rate": 0.01680354796320631,
                "l1_loads": 60880,
                "l1_stores": 13980,
                "l1l2_store_miss_rate": 0.009155937052932762,
                "l2_load_miss_rate": 0.9364613880742912,
                "l3_load_miss_rate": 0.592901878914405,
                "l3_store_miss_rate": 0.5,
                "n_accesses": 74860,
                "n_cpus": 2,
                "runtime_estimate_s": 0.0001059847619047619,
                "style": "per-bucket",
            },
        },
    }

    @pytest.mark.parametrize("style", sorted(PINS))
    def test_recorded_stream_is_pinned(self, style):
        import hashlib

        from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
        from repro.core import InteractionLists, get_traverser
        from repro.particles import clustered_clumps

        tree = build_tree(clustered_clumps(300, seed=16), tree_type="oct", bucket_size=8)
        arrays = compute_centroid_arrays(tree, theta=0.7)
        engine = get_traverser(style)

        trace = MemoryTraceRecorder(tree, style)
        engine.traverse(tree, GravityVisitor(tree, arrays), None, trace)
        addrs, writes = trace.trace()
        lists = InteractionLists()
        engine.traverse(tree, GravityVisitor(tree, arrays), None, lists)
        row = profile_traversal_style(tree, style, n_cpus=2, cache_scale=16,
                                      buckets_per_partition=24)
        got = {
            "trace": hashlib.sha256(addrs.astype("<i8").tobytes()
                                    + writes.tobytes()).hexdigest(),
            "lists": hashlib.sha256(b"".join(list_bytes(lists).values())).hexdigest(),
            "table2": row.as_dict(),
        }
        assert got == self.PINS[style]
