"""Unit tests for ``repro.exec``: chunking, the shared-memory arena,
backend registry/fallback semantics, ``exec.*`` telemetry, and the
SharedTreeCache thread-backend contention stress test (with fault
injection)."""

import numpy as np
import pytest

from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
from repro.cache.concurrent import SharedTreeCache
from repro.core.traverser import Recorder, get_traverser
from repro.core.visitor import Visitor
from repro.decomp import SfcDecomposer, decompose
from repro.exec import (
    ShmArena,
    attach_arena,
    chunk_targets,
    get_backend,
)
from repro.exec.threads import ThreadBackend, warm_shared_cache
from repro.faults import parse_fault_spec
from repro.obs import Telemetry, use_telemetry
from repro.particles.generators import clustered_clumps, uniform_cube
from repro.trees import build_tree

from tests.harness.differential import CountInRadiusVisitor


@pytest.fixture(scope="module")
def tree():
    return build_tree(uniform_cube(600, seed=21), tree_type="oct", bucket_size=12)


def _gravity_visitor(tree):
    return GravityVisitor(tree, compute_centroid_arrays(tree, theta=0.6),
                          softening=1e-3)


class TestChunking:
    def test_empty_targets(self, tree):
        assert chunk_targets(tree, np.array([], dtype=np.int64), n_chunks=4) == []

    def test_exact_cover_without_decomposition(self, tree):
        targets = get_traverser("transposed")._resolve_targets(tree, None)
        chunks = chunk_targets(tree, targets, n_chunks=7)
        assert 1 <= len(chunks) <= 7
        assert all(len(c) > 0 for c in chunks)
        # exact, order-preserving cover
        assert np.array_equal(np.concatenate(chunks), targets)

    def test_more_chunks_than_targets(self, tree):
        targets = get_traverser("transposed")._resolve_targets(tree, None)[:3]
        chunks = chunk_targets(tree, targets, n_chunks=64)
        assert len(chunks) == 3
        assert all(len(c) == 1 for c in chunks)

    def test_decomposition_partition_order(self, tree):
        pp = SfcDecomposer().assign(tree.particles, 5)
        decomp = decompose(tree, pp, n_subtrees=4)
        targets = get_traverser("transposed")._resolve_targets(tree, None)
        chunks = chunk_targets(tree, targets, decomposition=decomp)
        # exact cover (as a set: partition grouping reorders buckets)
        got = np.sort(np.concatenate(chunks))
        assert np.array_equal(got, np.sort(targets))
        assert len(chunks) <= 5
        # every bucket sits in its owner's chunk, and chunk owners ascend
        owners = []
        for chunk in chunks:
            first = tree.pstart[chunk]
            chunk_owner = decomp.particle_partition[first]
            assert len(np.unique(chunk_owner)) == 1
            owners.append(int(chunk_owner[0]))
        assert owners == sorted(owners)

    def test_single_partition_falls_back_to_even_split(self, tree):
        pp = np.zeros(tree.n_particles, dtype=np.int64)
        decomp = decompose(tree, pp, n_subtrees=2)
        targets = get_traverser("transposed")._resolve_targets(tree, None)
        chunks = chunk_targets(tree, targets, decomposition=decomp, n_chunks=6)
        assert len(chunks) == 6
        assert np.array_equal(np.concatenate(chunks), targets)


class TestShmArena:
    def test_round_trip(self):
        arrays = {
            "a": np.arange(101, dtype=np.float64),
            "b": np.arange(12, dtype=np.int32).reshape(3, 4),
            "c": np.array([True, False, True]),
        }
        with ShmArena(arrays) as arena:
            attached = attach_arena(arena.handle)
            try:
                assert set(attached.arrays) == set(arrays)
                for k, v in arrays.items():
                    got = attached.arrays[k]
                    assert got.dtype == v.dtype and got.shape == v.shape
                    assert np.array_equal(got, v)
            finally:
                attached.close()

    def test_views_are_read_only(self):
        with ShmArena({"x": np.zeros(8)}) as arena:
            attached = attach_arena(arena.handle)
            try:
                with pytest.raises(ValueError):
                    attached.arrays["x"][0] = 1.0
            finally:
                attached.close()

    def test_offsets_are_aligned(self):
        arrays = {"a": np.zeros(3, dtype=np.int8), "b": np.zeros(5),
                  "c": np.zeros((2, 3), dtype=np.float32)}
        with ShmArena(arrays) as arena:
            _, specs = arena.handle
            assert all(off % 64 == 0 for off, _, _ in specs.values())

    def test_dispose_is_idempotent(self):
        arena = ShmArena({"x": np.ones(4)})
        arena.dispose()
        arena.dispose()

    def test_noncontiguous_input(self):
        base = np.arange(20, dtype=np.float64).reshape(4, 5)
        view = base[:, ::2]  # not C-contiguous
        with ShmArena({"v": view}) as arena:
            attached = attach_arena(arena.handle)
            try:
                assert np.array_equal(attached.arrays["v"], view)
            finally:
                attached.close()


class TestRegistry:
    def test_names(self):
        for name in ("serial", "threads", "processes"):
            backend = get_backend(name, workers=1)
            assert backend.name == name
            backend.shutdown()

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("gpu")

    def test_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            get_backend("threads", workers=-2)

    def test_serial_forces_one_worker(self):
        assert get_backend("serial", workers=8).workers == 1


class _PlainVisitor(Visitor):
    """No exec protocol, not shareable: backends must fall back."""

    def open(self, source, target) -> bool:
        return False

    def node(self, source, target) -> None:
        pass

    def leaf(self, source, target) -> None:
        pass


class TestFallbackModes:
    def test_serial_backend_mode(self, tree):
        b = get_backend("serial")
        b.run(tree, "transposed", _PlainVisitor())
        assert b.last_mode == "serial"

    def test_one_worker_is_serial(self, tree):
        with get_backend("threads", workers=1) as b:
            b.run(tree, "transposed", _gravity_visitor(tree))
            assert b.last_mode == "serial"

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_unsupported_visitor_falls_back(self, tree, backend):
        serial = _gravity_visitor(tree)
        get_backend("serial").run(tree, "transposed", serial)
        with get_backend(backend, workers=2) as b:
            vis = _PlainVisitor()
            b.run(tree, "transposed", vis)
            assert b.last_mode == "serial-fallback"

    def test_unsplittable_recorder_falls_back(self, tree):
        with get_backend("threads", workers=2) as b:
            b.run(tree, "transposed", _gravity_visitor(tree), recorder=Recorder())
            assert b.last_mode == "serial-fallback"

    def test_thread_backend_not_shareable_uses_rebuild(self, tree):
        """A protocol-only visitor (exec_shareable=False) still parallelises
        on threads, via per-chunk rebuild + chunk-ordered exec_apply."""

        class NotShared(CountInRadiusVisitor):
            exec_shareable = False

        serial = CountInRadiusVisitor(tree, 0.2)
        get_backend("serial").run(tree, "transposed", serial)
        with get_backend("threads", workers=3) as b:
            vis = NotShared(tree, 0.2)
            b.run(tree, "transposed", vis)
            assert b.last_mode == "parallel"
        assert np.array_equal(vis.counts, serial.counts)


class TestBareBackendIsSupervised:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_bare_backend_is_supervised_and_bit_identical(self, backend):
        """No opt-in: a bare ``get_backend`` pool runs the supervised loop,
        and with workers warming a shared cache its result equals serial."""
        ps = uniform_cube(600, seed=21)
        tree = build_tree(ps, tree_type="oct", bucket_size=12)
        decomp = decompose(tree, SfcDecomposer().assign(ps, 8), n_subtrees=8)
        cache = SharedTreeCache(tree, decomp.node_process(), process=0,
                                nodes_per_request=2, shared_branch_levels=2)
        serial = _gravity_visitor(tree)
        get_backend("serial").run(tree, "transposed", serial)
        with get_backend(backend, workers=2) as b:
            vis = _gravity_visitor(tree)
            b.run(tree, "transposed", vis, shared_cache=cache)
            assert b.last_mode == "parallel"
            assert b.last_supervision is not None
            assert not any(b.last_supervision.values())
        assert np.array_equal(vis.accel, serial.accel)
        cache.validate()

    def test_supervise_rejects_anything_but_true_or_a_config(self):
        for bad in (False, None, "yes"):
            with pytest.raises(ValueError, match="supervise must be True"):
                get_backend("threads", workers=2, supervise=bad)


class TestExecTelemetry:
    def test_parallel_run_emits_metrics_and_spans(self, tree):
        tel = Telemetry()
        with use_telemetry(tel), get_backend("threads", workers=2) as b:
            b.run(tree, "transposed", _gravity_visitor(tree))
            assert b.last_mode == "parallel"
        metrics = {m["name"]: m for m in tel.metrics.collect()}
        assert metrics["exec.traversals"]["value"] == 1
        assert metrics["exec.chunks"]["value"] >= 2
        assert metrics["exec.workers"]["value"] == 2
        assert metrics["exec.targets"]["value"] > 0
        spans = tel.tracer.find("exec.task")
        assert len(spans) == int(metrics["exec.chunks"]["value"])
        # spans carry chunk/targets attribution for the trace viewer
        assert all(s["args"]["targets"] > 0 for s in spans)
        assert {s["args"]["chunk"] for s in spans} == set(range(len(spans)))

    def test_fallback_increments_counter(self, tree):
        tel = Telemetry()
        with use_telemetry(tel), get_backend("threads", workers=2) as b:
            b.run(tree, "transposed", _PlainVisitor())
        metrics = {m["name"]: m for m in tel.metrics.collect()}
        assert metrics["exec.serial_fallbacks"]["value"] == 1


class TestProcessBackendReuse:
    def test_pool_and_worker_tree_cache_survive_runs(self, tree):
        serial = _gravity_visitor(tree)
        get_backend("serial").run(tree, "transposed", serial)
        with get_backend("processes", workers=2) as b:
            for _ in range(3):
                vis = _gravity_visitor(tree)
                b.run(tree, "transposed", vis)
                assert b.last_mode == "parallel"
                assert np.array_equal(vis.accel, serial.accel)


def _cache_nonplaceholder_nodes(cache) -> list[int]:
    out = []
    stack = [cache.root]
    while stack:
        e = stack.pop()
        if e.is_placeholder:
            continue
        out.append(e.node_index)
        stack.extend(e.children)
    return out


class TestThreadCacheStress:
    """Satellite: the wait-free SharedTreeCache under *real* thread
    contention from the thread backend, with injected transient fill
    failures.  Invariants: no lost waiters (parked == resumed at
    quiescence), no double fills (each tree node materialised at most
    once), structural validity, and physics bit-identical to serial."""

    def _make(self, n=1000, parts=8, fail=0.0, seed=0):
        ps = clustered_clumps(n, seed=17)
        tree = build_tree(ps, tree_type="oct", bucket_size=12)
        decomp = decompose(tree, SfcDecomposer().assign(ps, parts),
                           n_subtrees=parts)
        injector = parse_fault_spec(f"fail={fail},seed={seed}") if fail else None
        cache = SharedTreeCache(
            tree, decomp.node_process(), process=0,
            nodes_per_request=2, shared_branch_levels=2, injector=injector,
        )
        return tree, cache

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_contended_warming_with_faults(self, seed):
        tree, cache = self._make(fail=0.3, seed=seed)
        serial = _gravity_visitor(tree)
        get_traverser("transposed").traverse(tree, serial, None)
        backend = ThreadBackend(workers=4, cache_warm_fills=24)
        try:
            for _ in range(3):  # repeated runs keep draining placeholders
                vis = _gravity_visitor(tree)
                backend.run(tree, "transposed", vis, shared_cache=cache)
                assert backend.last_mode == "parallel"
                assert np.array_equal(vis.accel, serial.accel)
                issued, invoked = backend.last_cache_warm
                # a waiter parked by one worker may be resumed by another
                # *after* that worker's warm loop returned its counts, so
                # within a run invoked can only lag issued — never exceed it
                assert invoked <= issued
        finally:
            backend.shutdown()
        cache.validate()
        # injected failures actually happened and were survived
        assert cache.fills_failed > 0
        assert cache.fills_applied > 0
        # no lost waiters across the whole session
        assert cache.waiters_parked == cache.waiters_resumed
        # no double fills: every materialised node appears exactly once
        nodes = _cache_nonplaceholder_nodes(cache)
        assert len(nodes) == len(set(nodes))

    def test_fault_free_warming_completes(self):
        tree, cache = self._make(fail=0.0)
        backend = ThreadBackend(workers=4, cache_warm_fills=64)
        try:
            for _ in range(6):
                vis = _gravity_visitor(tree)
                backend.run(tree, "transposed", vis, shared_cache=cache)
                if warm_shared_cache(cache, 1)[0] == 0:
                    break  # fully warmed
        finally:
            backend.shutdown()
        cache.validate()
        assert cache.waiters_parked == cache.waiters_resumed
        assert cache.fills_failed == 0
        nodes = _cache_nonplaceholder_nodes(cache)
        assert len(nodes) == len(set(nodes))

    @pytest.mark.slow
    def test_many_seeds_heavy_contention(self, request):
        # Eight seeds when the slow matrices are selected (`-m slow`); one
        # in a run that selects every test.
        sweep = request.config.getoption("markexpr") == "slow"
        for seed in range(4, 12 if sweep else 5):
            tree, cache = self._make(n=1400, parts=12, fail=0.4, seed=seed)
            serial = _gravity_visitor(tree)
            get_traverser("transposed").traverse(tree, serial, None)
            backend = ThreadBackend(workers=6, cache_warm_fills=40)
            try:
                vis = _gravity_visitor(tree)
                backend.run(tree, "transposed", vis, shared_cache=cache)
                assert np.array_equal(vis.accel, serial.accel)
            finally:
                backend.shutdown()
            cache.validate()
            assert cache.waiters_parked == cache.waiters_resumed
            nodes = _cache_nonplaceholder_nodes(cache)
            assert len(nodes) == len(set(nodes))
