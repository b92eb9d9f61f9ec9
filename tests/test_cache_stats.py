"""Cache model descriptors and fetch-statistics accounting."""

import numpy as np
import pytest

from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
from repro.cache import (
    CACHE_MODELS,
    PER_THREAD,
    SEQUENTIAL,
    SINGLE_WRITER,
    WAITFREE,
    XWRITE,
    CacheModel,
    assign_fetch_groups,
    fetch_statistics,
)
from repro.cache.stats import miss_attribution
from repro.core import InteractionLists, get_traverser
from repro.decomp import SfcDecomposer, decompose
from repro.particles import clustered_clumps
from repro.runtime import CostModel, workload_from_traversal
from repro.trees import build_tree

from tests.harness.replay_reference import (reference_fetch_statistics,
                                            reference_miss_attribution,
                                            reference_work_by_group)


class TestCacheModelDescriptors:
    def test_registry(self):
        assert set(CACHE_MODELS) == {
            "WaitFree", "XWrite", "Sequential", "PerThread", "SingleWriter"
        }

    def test_waitfree_is_shared_parallel(self):
        assert WAITFREE.dedupe_scope == "process"
        assert WAITFREE.insert_policy == "parallel"

    def test_xwrite_locked(self):
        assert XWRITE.insert_policy == "locked"
        assert XWRITE.dedupe_scope == "process"

    def test_sequential_is_per_thread_cache(self):
        """Fig 3's 'Sequential' is the per-thread software cache."""
        assert SEQUENTIAL.dedupe_scope == "thread"
        assert PER_THREAD.dedupe_scope == "thread"
        assert SINGLE_WRITER.insert_policy == "single_thread"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dedupe_scope="global", dedupe_time="request", insert_policy="parallel"),
            dict(dedupe_scope="process", dedupe_time="never", insert_policy="parallel"),
            dict(dedupe_scope="process", dedupe_time="request", insert_policy="magic"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CacheModel("bad", **kwargs)


@pytest.fixture(scope="module")
def traversal_setup():
    p = clustered_clumps(3000, seed=23)
    tree = build_tree(p, tree_type="oct", bucket_size=16)
    parts = SfcDecomposer().assign(tree.particles, 32)
    dec = decompose(tree, parts, n_subtrees=32)
    lists = InteractionLists()
    visitor = GravityVisitor(tree, compute_centroid_arrays(tree, theta=0.7))
    get_traverser("transposed").traverse(tree, visitor, None, lists)
    return tree, dec, lists


class TestFetchGroups:
    def test_every_deep_node_grouped(self, traversal_setup):
        tree, dec, _ = traversal_setup
        groups = assign_fetch_groups(tree, dec, nodes_per_request=3, shared_branch_levels=2)
        deep = (dec.node_subtree >= 0) & (tree.level >= 2)
        assert np.all(groups.group_of_node[deep] >= 0)
        shared = dec.node_subtree < 0
        assert np.all(groups.group_of_node[shared] == -1)

    def test_group_subtree_consistency(self, traversal_setup):
        tree, dec, _ = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        for node in range(0, tree.n_nodes, 37):
            g = groups.group_of_node[node]
            if g >= 0:
                assert groups.group_subtree[g] == dec.node_subtree[node]

    def test_bytes_accounting(self, traversal_setup):
        tree, dec, _ = traversal_setup
        from repro.cache.stats import NODE_BYTES, PARTICLE_BYTES

        groups = assign_fetch_groups(tree, dec, shared_branch_levels=0)
        grouped = groups.group_of_node >= 0
        is_leaf = tree.first_child == -1
        expect = (
            NODE_BYTES * np.count_nonzero(grouped)
            + PARTICLE_BYTES
            * (tree.pend - tree.pstart)[grouped & is_leaf].sum()
        )
        assert groups.group_bytes.sum() == pytest.approx(expect)

    def test_finer_requests_make_more_groups(self, traversal_setup):
        tree, dec, _ = traversal_setup
        coarse = assign_fetch_groups(tree, dec, nodes_per_request=6)
        fine = assign_fetch_groups(tree, dec, nodes_per_request=1)
        assert fine.n_groups > coarse.n_groups


class TestFetchStatistics:
    def test_single_process_no_traffic(self, traversal_setup):
        tree, dec, lists = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        st = fetch_statistics(tree, lists, dec, groups, 1, WAITFREE)
        assert st.total_requests == 0
        assert st.total_bytes == 0

    def test_traffic_grows_with_processes(self, traversal_setup):
        tree, dec, lists = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        reqs = [
            fetch_statistics(tree, lists, dec, groups, p, WAITFREE).total_requests
            for p in (2, 8, 32)
        ]
        assert reqs[0] < reqs[1] < reqs[2]

    def test_thread_scope_duplicates(self, traversal_setup):
        """ChaNGa-style per-thread caches fetch the same segment multiple
        times per process (§III-A)."""
        tree, dec, lists = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        wf = fetch_statistics(tree, lists, dec, groups, 8, WAITFREE, workers_per_process=8)
        pt = fetch_statistics(tree, lists, dec, groups, 8, PER_THREAD, workers_per_process=8)
        assert pt.total_requests > wf.total_requests
        assert pt.total_bytes > wf.total_bytes
        assert pt.duplication_factor > 1.0
        assert wf.duplication_factor == pytest.approx(1.0)

    def test_more_workers_more_duplication(self, traversal_setup):
        tree, dec, lists = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        few = fetch_statistics(tree, lists, dec, groups, 4, PER_THREAD, workers_per_process=2)
        many = fetch_statistics(tree, lists, dec, groups, 4, PER_THREAD, workers_per_process=16)
        assert many.total_requests >= few.total_requests


class TestArrayPassesEqualReferenceLoops:
    """What the fetch statistics, the miss attribution and the DES workload
    read off the CSR lists equals, byte for byte and in dict order, the
    per-node loops kept in ``tests/harness/replay_reference.py``."""

    @pytest.mark.parametrize("workers", [1, 8])
    def test_fetch_statistics(self, traversal_setup, workers):
        tree, dec, lists = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        for n_proc in (2, 8, 32):
            unique, thread_requests, bytes_in, touches = reference_fetch_statistics(
                lists, dec, groups, n_proc, workers)
            wf, pt = (fetch_statistics(tree, lists, dec, groups, n_proc, model,
                                       workers_per_process=workers)
                      for model in (WAITFREE, PER_THREAD))
            for st in (wf, pt):
                assert st.unique_fetches.tobytes() == unique.tobytes()
                assert st.touches.tobytes() == touches.tobytes()
            assert wf.bytes_in.tobytes() == bytes_in.tobytes()
            assert pt.requests.tobytes() == thread_requests.tobytes()

    def test_miss_attribution(self, traversal_setup):
        tree, dec, lists = traversal_setup
        groups = assign_fetch_groups(tree, dec)
        touches, unique, bytes_in, part_subtree, node_remote = reference_miss_attribution(
            tree, lists, dec, groups, 8)
        got = miss_attribution(tree, lists, dec, groups, 8)
        assert got["node_remote_touches"] == node_remote.tolist()
        assert got["total_unique_groups"] == int(unique.sum())
        assert got["total_bytes"] == float(bytes_in.sum())
        for row in got["partitions"]:
            part = row["partition"]
            assert (row["touches"], row["unique_groups"], row["bytes"]) == (
                touches[part], unique[part], bytes_in[part])
            assert all(part_subtree[part, s["subtree"]] == s["touches"]
                       for s in row["top_subtrees"])
        assert len(got["partitions"]) == np.count_nonzero(touches)

    @pytest.mark.parametrize("engine", ["transposed", "batched"])
    def test_workload_sums_and_group_order(self, traversal_setup, engine):
        tree, dec, _ = traversal_setup
        lists = InteractionLists()
        get_traverser(engine).traverse(
            tree, GravityVisitor(tree, compute_centroid_arrays(tree, theta=0.7)), None, lists)
        groups = assign_fetch_groups(tree, dec)
        want = reference_work_by_group(tree, lists, groups, CostModel())
        got = workload_from_traversal(tree, dec, lists, groups=groups)
        assert [b.leaf for b in got.buckets] == list(want)
        for bucket in got.buckets:
            assert list(bucket.work_by_group.items()) == list(want[bucket.leaf].items())
