"""Fault-tolerant execution layer tests: supervised dispatch semantics,
real worker-kill recovery (SIGKILL on process workers), hung-worker
deadlines, pool rebuild, poison-chunk quarantine, deterministic exec fault
plans, the worker tree cache LRU fix, and the orphan shm sweeper."""

import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.exec import (
    ChunkSupervisor,
    SupervisionStats,
    SupervisorConfig,
    get_backend,
    sweep_orphan_segments,
)
from repro.exec.processes import _WORKER_CACHE_LIMIT, _WORKER_TREES, _attach_tree
from repro.exec.shm import ShmArena
from repro.faults import (
    ExecFaultError,
    ExecFaultPlan,
    WorkerDeath,
    parse_exec_fault_spec,
)
from repro.obs import Telemetry, use_telemetry
from repro.particles.generators import uniform_cube
from repro.trees import build_tree

from tests.harness.differential import (
    CountInRadiusVisitor,
    assert_equivalent,
    run_combination,
)


@pytest.fixture(scope="module")
def tree():
    return build_tree(uniform_cube(800, seed=5), tree_type="oct", bucket_size=12)


def _make_visitor(tree):
    return CountInRadiusVisitor(tree, 0.12)


def _collect(visitor):
    return {"counts": visitor.counts}


def _serial(tree):
    return run_combination(tree, "basic", _make_visitor, _collect)


# -- fault plan ---------------------------------------------------------------
class TestExecFaultPlan:
    def test_spec_round_trip(self):
        plan = parse_exec_fault_spec("err=0.1,hang=0.2@3,kill=0.3,seed=9")
        assert plan == ExecFaultPlan(
            seed=9, chunk_error=0.1, worker_hang=0.2, hang_time=3.0,
            worker_kill=0.3,
        )
        assert parse_exec_fault_spec(plan.describe()) == plan

    def test_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exec_fault_spec("explode=0.5")
        with pytest.raises(ValueError):
            parse_exec_fault_spec("err")
        with pytest.raises(ValueError):
            parse_exec_fault_spec("kill=1.5")

    def test_draw_is_deterministic_and_per_attempt(self):
        plan = ExecFaultPlan(seed=3, worker_kill=0.5)
        draws = [plan.draw(c, a) for c in range(16) for a in range(3)]
        assert draws == [plan.draw(c, a) for c in range(16) for a in range(3)]
        # retried chunks redraw: some chunk killed at attempt 0 survives later
        killed = [c for c in range(16) if plan.draw(c, 0) == "kill"]
        assert killed, "seed should kill at least one chunk at attempt 0"
        assert any(plan.draw(c, 1) is None for c in killed)

    def test_kill_always_fires_at_probability_one(self):
        plan = ExecFaultPlan(worker_kill=1.0)
        assert all(plan.draw(c, a) == "kill" for c in range(8) for a in range(4))

    def test_thread_kill_raises_worker_death(self):
        plan = ExecFaultPlan(worker_kill=1.0)
        with pytest.raises(WorkerDeath):
            plan.apply_in_worker(0, 0, in_process=False)

    def test_error_fault_raises(self):
        plan = ExecFaultPlan(chunk_error=1.0)
        with pytest.raises(ExecFaultError):
            plan.apply_in_worker(0, 0, in_process=True)

    def test_no_faults_is_a_no_op(self):
        ExecFaultPlan().apply_in_worker(0, 0, in_process=True)
        assert not ExecFaultPlan().any_faults
        assert ExecFaultPlan(chunk_error=0.1).any_faults


# -- supervisor unit behaviour ------------------------------------------------
def _run_supervisor(n_chunks, compute, config=None, rebuild=None, workers=4):
    """Drive a ChunkSupervisor over a real thread pool with a fake compute."""
    sup = ChunkSupervisor(config or SupervisorConfig(), "test")
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        results, stats = sup.run(
            n_chunks,
            submit=lambda i, a: pool.submit(compute, i, a),
            serial_exec=lambda i: ("serial", i),
            rebuild=rebuild,
        )
    finally:
        # don't join abandoned (hung) attempts — mirror the backends'
        # _hang_suspected shutdown path
        pool.shutdown(wait=False, cancel_futures=True)
    return results, stats


class TestChunkSupervisor:
    def test_clean_run_touches_nothing(self):
        results, stats = _run_supervisor(8, lambda i, a: ("ok", i, a))
        assert results == [("ok", i, 0) for i in range(8)]
        assert not stats.degraded
        assert stats.to_dict() == SupervisionStats().to_dict()

    def test_transient_error_retries(self):
        def compute(i, attempt):
            if i == 3 and attempt == 0:
                raise RuntimeError("transient")
            return ("ok", i, attempt)

        results, stats = _run_supervisor(6, compute)
        assert results[3] == ("ok", 3, 1)
        assert stats.retries == 1 and stats.quarantined == 0
        assert stats.degraded

    def test_worker_death_counts_separately(self):
        def compute(i, attempt):
            if i == 1 and attempt == 0:
                raise WorkerDeath("bang")
            return ("ok", i, attempt)

        _, stats = _run_supervisor(4, compute)
        assert stats.worker_deaths == 1
        assert stats.retries == 0

    def test_poison_chunk_quarantines_serially(self):
        def compute(i, attempt):
            if i == 2:
                raise RuntimeError("always fails")
            return ("ok", i, attempt)

        cfg = SupervisorConfig(max_chunk_retries=2, backoff_base=0.0)
        results, stats = _run_supervisor(4, compute, config=cfg)
        assert results[2] == ("serial", 2)
        assert stats.quarantined == 1
        assert stats.retries == 3  # attempts 0..2 all failed

    def test_deadline_redispatches_hung_attempt(self):
        def compute(i, attempt):
            if i == 0 and attempt == 0:
                time.sleep(5.0)  # hung first attempt
            return ("ok", i, attempt)

        cfg = SupervisorConfig(chunk_deadline=0.2)
        t0 = time.perf_counter()
        results, stats = _run_supervisor(3, compute, config=cfg)
        assert time.perf_counter() - t0 < 4.0, "must not wait out the hang"
        assert results[0] == ("ok", 0, 1)
        assert stats.deadline_misses >= 1
        assert stats.redispatches >= 1

    def test_latency_seeded_deadline_arms_after_observations(self):
        cfg = SupervisorConfig(seed_observations=4)
        sup = ChunkSupervisor(cfg, "test")
        assert sup.effective_deadline() is None
        for _ in range(4):
            sup.observe(0.01)
        armed = sup.effective_deadline()
        assert armed is not None
        assert armed >= cfg.min_deadline

    def test_explicit_deadline_wins_over_seed(self):
        sup = ChunkSupervisor(SupervisorConfig(chunk_deadline=7.0), "test")
        for _ in range(32):
            sup.observe(0.001)
        assert sup.effective_deadline() == 7.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(chunk_deadline=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_chunk_retries=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(deadline_factor=0)


# -- real-backend recovery ----------------------------------------------------
class TestThreadRecovery:
    def test_kill_plan_is_bit_identical_to_serial(self, tree):
        base = _serial(tree)
        other = run_combination(
            tree, "basic", _make_visitor, _collect, "threads", 4,
            backend_opts={"exec_faults": ExecFaultPlan(seed=7, worker_kill=0.3)},
        )
        assert other.mode == "degraded"
        assert other.extra["supervision"]["worker_deaths"] > 0
        assert_equivalent(base, other)

    def test_error_plan_is_bit_identical_to_serial(self, tree):
        base = _serial(tree)
        other = run_combination(
            tree, "basic", _make_visitor, _collect, "threads", 4,
            backend_opts={"exec_faults": ExecFaultPlan(seed=2, chunk_error=0.5)},
        )
        assert other.mode == "degraded"
        assert other.extra["supervision"]["retries"] > 0
        assert_equivalent(base, other)

    def test_hang_plan_recovers_via_deadline(self, tree):
        base = _serial(tree)
        other = run_combination(
            tree, "basic", _make_visitor, _collect, "threads", 4,
            backend_opts={
                "exec_faults": ExecFaultPlan(seed=5, worker_hang=0.25,
                                             hang_time=10.0),
                "supervise": SupervisorConfig(chunk_deadline=0.5),
            },
        )
        assert other.mode == "degraded"
        assert other.extra["supervision"]["redispatches"] > 0
        assert_equivalent(base, other)


class TestProcessRecovery:
    def test_sigkill_mid_chunk_is_bit_identical_to_serial(self, tree):
        """The acceptance scenario: real SIGKILL on process workers
        mid-chunk; the run completes bit-identical to serial and reports
        the deaths."""
        base = _serial(tree)
        other = run_combination(
            tree, "basic", _make_visitor, _collect, "processes", 4,
            backend_opts={"exec_faults": ExecFaultPlan(seed=3, worker_kill=0.25)},
        )
        assert other.mode == "degraded"
        sup = other.extra["supervision"]
        assert sup["worker_deaths"] > 0
        assert sup["pool_rebuilds"] > 0  # BrokenProcessPool -> rebuilt
        assert_equivalent(base, other)

    def test_sigkill_events_reach_flight_recorder(self, tree):
        tel = Telemetry()
        with use_telemetry(tel):
            other = run_combination(
                tree, "basic", _make_visitor, _collect, "processes", 4,
                backend_opts={
                    "exec_faults": ExecFaultPlan(seed=3, worker_kill=0.25)
                },
            )
        assert other.mode == "degraded"
        kinds = {kind for _, kind, _ in tel.flight.snapshot()}
        assert "exec.worker_death" in kinds
        assert "exec.pool_rebuild" in kinds
        deaths = tel.metrics.counter("exec.worker_deaths", backend="processes")
        assert deaths.value > 0

    def test_hang_plan_recovers_via_deadline(self, tree):
        base = _serial(tree)
        t0 = time.perf_counter()
        other = run_combination(
            tree, "basic", _make_visitor, _collect, "processes", 4,
            backend_opts={
                "exec_faults": ExecFaultPlan(seed=5, worker_hang=0.2,
                                             hang_time=30.0),
                "supervise": SupervisorConfig(chunk_deadline=1.0),
            },
        )
        assert time.perf_counter() - t0 < 25.0, "must not wait out 30s hangs"
        assert other.mode == "degraded"
        assert other.extra["supervision"]["deadline_misses"] > 0
        assert_equivalent(base, other)


class TestBackendPlumbing:
    def test_supervision_auto_arms_on_fault_plan(self):
        b = get_backend("threads", workers=2,
                        exec_faults=ExecFaultPlan(chunk_error=0.1))
        assert b.supervise_config is not None
        b.shutdown()

    def test_serial_backend_ignores_supervision(self):
        b = get_backend("serial", supervise=True,
                        exec_faults=ExecFaultPlan(worker_kill=1.0))
        assert b.supervise_config is None
        assert b.exec_faults is None
        b.shutdown()

    def test_backend_is_a_context_manager(self, tree):
        with get_backend("threads", workers=2, supervise=True) as b:
            vis = _make_visitor(tree)
            b.run(tree, "basic", vis)
        assert b._pool is None  # __exit__ shut the pool down


class TestDriverIntegration:
    def test_report_carries_exec_mode_and_supervision(self):
        from repro.apps.knn import KNNDriver
        from repro.core import Configuration

        p = uniform_cube(500, seed=11)

        class Main(KNNDriver):
            def create_particles(self, config):
                return p

        driver = Main(Configuration(num_iterations=1), k=4)
        driver.enable_parallel("threads", workers=4,
                               exec_faults="err=0.5,seed=1")
        try:
            driver.run()
        finally:
            driver.disable_parallel()
        rep = driver.reports[-1]
        assert rep.exec_mode == "degraded"
        assert rep.supervision["retries"] > 0
        d = rep.to_dict()
        assert d["exec_mode"] == "degraded"
        assert d["supervision"]["retries"] > 0

    def test_sph_report_carries_supervision(self):
        # SPH drives the backend directly via compute_density_knn, so it
        # needs the same exec_runs.absorb hook as kNN
        from repro.apps.sph import SPHDriver
        from repro.core import Configuration

        p = uniform_cube(400, seed=12)

        class Main(SPHDriver):
            def create_particles(self, config):
                return p

        driver = Main(Configuration(num_iterations=1), k_neighbors=8)
        driver.enable_parallel("threads", workers=4,
                               exec_faults="err=0.5,seed=1")
        try:
            driver.run()
        finally:
            driver.disable_parallel()
        rep = driver.reports[-1]
        assert rep.exec_mode == "degraded"
        assert rep.supervision["retries"] > 0

    def test_driver_supervision_defaults_on(self):
        from repro.core import Driver

        driver = Driver()
        backend = driver.enable_parallel("threads", workers=2)
        try:
            assert backend.supervise_config is not None
        finally:
            driver.disable_parallel()


# -- worker tree cache LRU (satellite fix) ------------------------------------
class TestWorkerTreeCacheLRU:
    def _arena(self, tree):
        shared = {}
        for f in ("parent", "first_child", "n_children", "pstart", "pend",
                  "box_lo", "box_hi", "level", "key"):
            shared[f"tree.{f}"] = getattr(tree, f)
        for f in tree.particles.field_names:
            shared[f"part.{f}"] = tree.particles[f]
        return ShmArena(shared)

    def test_eviction_is_least_recently_used(self, tree):
        meta = {"tree_type": tree.tree_type, "bucket_size": tree.bucket_size}
        _WORKER_TREES.clear()
        arenas = [self._arena(tree) for _ in range(_WORKER_CACHE_LIMIT + 1)]
        try:
            names = [a.handle[0] for a in arenas]
            # fill the cache to its limit
            for a in arenas[:_WORKER_CACHE_LIMIT]:
                _attach_tree(a.handle, meta)
            # touch the OLDEST entry so it becomes most-recently-used
            _, _, hit = _attach_tree(arenas[0].handle, meta)
            assert hit
            # inserting one more must evict the true LRU (names[1]),
            # not the most-recently-inserted (the old popitem() bug)
            _attach_tree(arenas[-1].handle, meta)
            assert names[0] in _WORKER_TREES
            assert names[1] not in _WORKER_TREES
            assert names[-1] in _WORKER_TREES
        finally:
            for name in list(_WORKER_TREES):
                _WORKER_TREES.pop(name)[0].close()
            for a in arenas:
                a.dispose()

    def test_cache_is_an_ordered_dict(self):
        assert isinstance(_WORKER_TREES, OrderedDict)


# -- shm generation tags and orphan sweeper -----------------------------------
class TestShmSweeper:
    def test_arena_name_embeds_pid_and_generation(self):
        arena = ShmArena({"x": np.arange(4)})
        try:
            name = arena.handle[0]
            parts = name.split("-")
            assert parts[0] == "repro"
            assert int(parts[1]) == os.getpid()
            assert parts[2] == "g0"
        finally:
            arena.dispose()

    def test_sweeper_ignores_live_owner(self):
        arena = ShmArena({"x": np.arange(8)})
        try:
            name = arena.handle[0]
            records = {r["name"]: r for r in sweep_orphan_segments()}
            assert name in records
            assert not records[name]["orphan"]
            assert not records[name]["removed"]
            # still attachable: the sweep must not have unlinked it
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
        finally:
            arena.dispose()

    def test_sweeper_removes_dead_owner_segment(self):
        # forge an orphan: a segment named for a pid that cannot exist
        dead_pid = 2 ** 22 + 12345  # beyond default pid_max
        name = f"repro-{dead_pid}-g3-deadbeef"
        seg = shared_memory.SharedMemory(name=name, create=True, size=128)
        seg.close()
        try:
            dry = {r["name"]: r for r in sweep_orphan_segments(dry_run=True)}
            assert dry[name]["orphan"] and not dry[name]["removed"]
            wet = {r["name"]: r for r in sweep_orphan_segments()}
            assert wet[name]["removed"]
            assert wet[name]["generation"] == 3
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            try:
                shared_memory.SharedMemory(name=name).unlink()
            except FileNotFoundError:
                pass

    def test_sweeper_skips_foreign_names(self):
        seg = shared_memory.SharedMemory(name="notrepro-1-g0-aaaa",
                                         create=True, size=64)
        seg.close()
        try:
            names = {r["name"] for r in sweep_orphan_segments()}
            assert "notrepro-1-g0-aaaa" not in names
        finally:
            shared_memory.SharedMemory(name="notrepro-1-g0-aaaa").unlink()

    def test_attach_failure_does_not_leak_segment(self):
        from repro.exec.shm import AttachedArena

        arena = ShmArena({"x": np.arange(4, dtype=np.int64)})
        name, specs = arena.handle
        # corrupt the spec: claims more data than the segment holds
        bad = (name, {"x": (0, "<i8", (10**6,))})
        try:
            with pytest.raises(Exception):
                AttachedArena(bad)
        finally:
            arena.dispose()
