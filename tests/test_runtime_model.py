"""Workload construction and the distributed-traversal DES model."""

import dataclasses

import numpy as np
import pytest

from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
from repro.cache import PER_THREAD, SEQUENTIAL, SINGLE_WRITER, WAITFREE, XWRITE
from repro.core import InteractionLists, get_traverser
from repro.decomp import SfcDecomposer, decompose
from repro.particles import clustered_clumps
from repro.runtime import (
    BRIDGES2,
    MACHINES,
    STAMPEDE2,
    SUMMIT,
    CostModel,
    simulate_traversal,
    workload_from_traversal,
)
from repro.trees import build_tree


@pytest.fixture(scope="module")
def workload():
    p = clustered_clumps(4000, seed=17)
    tree = build_tree(p, tree_type="oct", bucket_size=16)
    parts = SfcDecomposer().assign(tree.particles, 64)
    dec = decompose(tree, parts, n_subtrees=64)
    visitor = GravityVisitor(tree, compute_centroid_arrays(tree, theta=0.7))
    lists = InteractionLists()
    stats = get_traverser("transposed").traverse(tree, visitor, None, lists)
    wl = workload_from_traversal(tree, dec, lists)
    return wl, stats


class TestMachines:
    def test_table1_characteristics(self):
        """Table I: cores per node, CPU type, clock, comm layer."""
        assert SUMMIT.cores_per_node == 42
        assert SUMMIT.cpu_type == "POWER9" and SUMMIT.clock_ghz == 3.1
        assert SUMMIT.comm_layer == "UCX"
        assert STAMPEDE2.cores_per_node == 48
        assert STAMPEDE2.cpu_type == "Skylake" and STAMPEDE2.clock_ghz == 2.1
        assert STAMPEDE2.comm_layer == "MPI"
        assert BRIDGES2.cores_per_node == 128
        assert BRIDGES2.cpu_type == "EPYC 7742" and BRIDGES2.clock_ghz == 2.25
        assert BRIDGES2.comm_layer == "Infiniband"
        assert set(MACHINES) == {"Summit", "Stampede2", "Bridges2"}

    def test_summit_smt_workers(self):
        """Fig 10: '84 workers per node' on Summit (2-way SMT)."""
        assert SUMMIT.workers_per_node == 84

class TestCostModel:
    def test_clock_scaling(self):
        base = CostModel()
        fast = base.scaled_to(4.2)  # 2x the reference clock
        assert fast.c_pp == pytest.approx(base.c_pp / 2)

    def test_style_factor(self):
        cm = CostModel()
        assert cm.style_factor("transposed") == 1.0
        assert cm.style_factor("per-bucket") > 1.5
        with pytest.raises(ValueError):
            cm.style_factor("mystery")


class TestWorkload:
    def test_total_work_accounts_all_interactions(self, workload):
        wl, stats = workload
        cm = CostModel()
        expect = (
            stats.opens * cm.c_open
            + stats.pn_interactions * cm.c_pn
            + stats.pp_interactions * cm.c_pp
        )
        assert wl.total_work == pytest.approx(expect, rel=1e-9)

    def test_one_bucket_per_leaf(self, workload):
        wl, _ = workload
        leaves = {b.leaf for b in wl.buckets}
        assert len(leaves) == len(wl.buckets)

    def test_groups_cover_deep_nodes(self, workload):
        wl, _ = workload
        g = wl.groups
        assert g.n_groups > 0
        assert np.all(g.group_bytes > 0)
        assert np.all(g.group_subtree >= 0)


class TestSimulation:
    def test_single_process_time_is_work_over_cores(self, workload):
        wl, _ = workload
        r = simulate_traversal(wl, machine=STAMPEDE2, n_processes=1, workers_per_process=24)
        assert r.requests == 0  # everything local
        assert r.time >= wl.total_work / 24
        assert r.time < 1.5 * wl.total_work / 24

    def test_strong_scaling_reduces_time(self, workload):
        wl, _ = workload
        times = [
            simulate_traversal(wl, n_processes=p, workers_per_process=8).time
            for p in (1, 4, 16)
        ]
        assert times[0] > times[1] > times[2]

    def test_efficiency_degrades_with_scale(self, workload):
        wl, _ = workload
        effs = []
        for p in (1, 16):
            r = simulate_traversal(wl, n_processes=p, workers_per_process=8)
            effs.append(wl.total_work / (p * 8) / r.time)
        assert effs[1] < effs[0] <= 1.01

    def test_fig3_ordering(self, workload):
        """WaitFree is never beaten; XWrite pays lock-wait as soon as
        fetches appear; Sequential tracks WaitFree while threads still have
        work to hide its duplicated communication behind (the full Fig 3
        sweep at bench scale shows the paper's departure points)."""
        wl, _ = workload
        def run(model, p):
            return simulate_traversal(
                wl, n_processes=p, workers_per_process=24, cache_model=model
            ).time

        for p in (8, 32):
            wf, xw, seq = run(WAITFREE, p), run(XWRITE, p), run(SEQUENTIAL, p)
            assert wf <= xw
            assert wf <= seq * 1.05
        # moderate scale: Sequential hides its extra volume (overlap), XWrite
        # cannot hide lock-wait.
        assert run(SEQUENTIAL, 8) < run(XWRITE, 8)

    def test_sequential_sends_more_requests(self, workload):
        wl, _ = workload
        r_wf = simulate_traversal(wl, n_processes=16, workers_per_process=24, cache_model=WAITFREE)
        r_seq = simulate_traversal(wl, n_processes=16, workers_per_process=24, cache_model=SEQUENTIAL)
        assert r_seq.requests > r_wf.requests
        assert r_seq.bytes_moved > r_wf.bytes_moved
        assert r_seq.duplicate_requests > 0
        assert r_wf.duplicate_requests == 0

    def test_per_thread_requests_at_least_sequential(self, workload):
        """PerThread caches never benefit from another thread's fill, so
        they send at least as many requests as Sequential (which shares the
        filled cache process-wide)."""
        wl, _ = workload
        wf = simulate_traversal(wl, n_processes=8, workers_per_process=8, cache_model=WAITFREE)
        a = simulate_traversal(wl, n_processes=8, workers_per_process=8, cache_model=SEQUENTIAL)
        b = simulate_traversal(wl, n_processes=8, workers_per_process=8, cache_model=PER_THREAD)
        assert b.requests >= a.requests > wf.requests

    def test_single_writer_serialises_when_inserts_dominate(self, workload):
        """With expensive insertions, the one designated writer becomes the
        bottleneck while WaitFree spreads fills over all workers (§II-B:
        'parallel cache writing can significantly reduce the length of a
        communication-bound critical path')."""
        wl, _ = workload
        heavy = CostModel(insert_fixed=5e-4)
        wf = simulate_traversal(
            wl, n_processes=32, workers_per_process=24, cache_model=WAITFREE, cost=heavy
        )
        sw = simulate_traversal(
            wl, n_processes=32, workers_per_process=24, cache_model=SINGLE_WRITER, cost=heavy
        )
        assert sw.time > 1.5 * wf.time
        assert sw.requests == wf.requests  # same dedupe, different insert path

    def test_per_bucket_style_slower(self, workload):
        """Fig 10's BasicTrav: same communication, higher compute factor."""
        wl, _ = workload
        t_fast = simulate_traversal(wl, n_processes=4, workers_per_process=8).time
        t_slow = simulate_traversal(
            wl, n_processes=4, workers_per_process=8, traversal_style="per-bucket"
        ).time
        assert t_slow > 1.4 * t_fast

    def test_trace_collection(self, workload):
        wl, _ = workload
        r = simulate_traversal(wl, n_processes=4, workers_per_process=8, collect_trace=True)
        assert r.trace is not None
        labels = set(r.activity)
        assert "local traversal" in labels
        assert "traversal resumption" in labels
        assert "cache insertion" in labels
        assert "cache request" in labels
        # busy time across activities is bounded by cores x makespan
        assert sum(r.activity.values()) <= r.time * 4 * 8 * 1.0001

    def test_determinism(self, workload):
        wl, _ = workload
        a = simulate_traversal(wl, n_processes=8, workers_per_process=8)
        b = simulate_traversal(wl, n_processes=8, workers_per_process=8)
        assert a.time == b.time
        assert a.requests == b.requests

    def test_colocated_processes_cheaper(self, workload):
        """Packing processes onto shared-memory nodes replaces network
        latency with intra-node latency for neighbour traffic (block
        placement keeps neighbours adjacent), so the iteration gets faster
        on a latency-sensitive machine."""
        wl, _ = workload
        slow_net = dataclasses.replace(STAMPEDE2, net_latency_s=2e-4)
        spread = simulate_traversal(
            wl, machine=slow_net, n_processes=16, workers_per_process=8,
            processes_per_node=1,
        )
        packed = simulate_traversal(
            wl, machine=slow_net, n_processes=16, workers_per_process=8,
            processes_per_node=8,
        )
        assert packed.time < spread.time
        assert packed.requests == spread.requests


class TestWorkloadSpecMisc:
    def test_bucket_work_total(self):
        from repro.runtime import BucketWork

        b = BucketWork(leaf=0, partition=0, work_by_group={-1: 1.0, 3: 2.0})
        assert b.total_work == 3.0

    def test_cost_model_serialize_scales_with_clock(self):
        from repro.runtime import CostModel

        fast = CostModel().scaled_to(4.2)
        assert fast.serialize_fixed == pytest.approx(CostModel().serialize_fixed / 2)
        assert fast.insert_per_byte == pytest.approx(CostModel().insert_per_byte / 2)
