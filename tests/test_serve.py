"""Serving-layer units: protocol, admission policy (hypothesis-driven
conservation properties), micro-batcher, point-query kernels vs brute
force, circuit breaker, supervised executor, resident checkpointing,
traffic determinism, and the DES model's internal accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.knn import knn_points, range_points
from repro.particles import clustered_clumps
from repro.serve import (
    ADMITTED,
    AdmissionConfig,
    AdmissionController,
    BatchExecutor,
    BatchPolicy,
    BurnRateShedder,
    CircuitBreaker,
    MicroBatcher,
    ProtocolError,
    Query,
    Response,
    ServiceModel,
    TokenBucket,
    TrafficShape,
    build_resident_state,
    checkpoint_resident,
    decode_query_line,
    encode_line,
    execute_queries,
    generate_traffic,
    simulate_service,
)
from repro.serve.admission import QueueEntry
from repro.trees import build_tree

# ---------------------------------------------------------------------------
# protocol


def _q(i=0, op="knn", point=(0.5, 0.5, 0.5), **kw) -> Query:
    return Query(id=f"q{i}", op=op, point=np.asarray(point, float), **kw)


class TestProtocol:
    def test_query_roundtrip(self):
        q = _q(3, deadline=0.5, t=1.25, k=12)
        back = Query.from_wire(q.to_wire())
        assert back.id == "q3" and back.k == 12
        assert back.deadline == 0.5 and back.t == 1.25
        np.testing.assert_array_equal(back.point, q.point)

    def test_decode_line_errors(self):
        with pytest.raises(ProtocolError):
            decode_query_line(b"not json {")
        with pytest.raises(ProtocolError):
            decode_query_line(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            decode_query_line(b'{"op": "knn", "point": [1, 2]}')

    def test_response_wire(self):
        r = Response(id="a", status="shed", reason="rate-limit",
                     retry_after=0.25)
        doc = r.to_wire()
        assert doc["schema"] == "repro.serve/1"
        assert doc["retry_after"] == 0.25
        line = encode_line(doc)
        assert line.endswith(b"\n")
        back = Response.from_wire(doc)
        assert back.status == "shed" and back.retry_after == 0.25

    def test_validate(self):
        assert _q().validate(100, 64) is None
        assert "unknown op" in _q(op="frobnicate").validate(100, 64)
        assert "out of range" in _q(k=200).validate(100, 64)
        bad = Query(id="x", op="knn", point=np.array([np.nan, 0, 0]))
        assert "finite" in bad.validate(100, 64)
        assert "radius" in _q(op="range", radius=-1.0).validate(100, 64)


# ---------------------------------------------------------------------------
# token bucket


class TestTokenBucket:
    def test_burst_then_refill(self):
        b = TokenBucket(rate=10, burst=3)
        grants = [b.take(0.0) for _ in range(5)]
        assert grants == [True, True, True, False, False]
        assert b.take(0.1)          # one token refilled
        assert not b.take(0.1)
        assert b.time_to_token(0.1) == pytest.approx(0.1)

    def test_paced_stream_never_shed(self):
        # paced strictly under the refill rate -> every request admitted
        b = TokenBucket(rate=100, burst=1)
        assert all(b.take(i * 0.0101) for i in range(500))

    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1,
                    max_size=200),
           st.floats(min_value=0.5, max_value=50.0),
           st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_tokens_bounded(self, gaps, rate, burst):
        """Invariant: 0 <= tokens <= burst after any trace."""
        b = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        for gap in gaps:
            now += gap
            b.take(now)
            assert 0.0 <= b.tokens <= b.burst


# ---------------------------------------------------------------------------
# admission controller (conservation properties)


offer_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.05),   # inter-arrival gap
        st.sampled_from([None, 0.0, 100.0]),        # deadline
        st.booleans(),                              # drain a batch now?
    ),
    min_size=1, max_size=300,
)


class TestAdmissionProperties:
    @given(offer_steps,
           st.integers(min_value=1, max_value=16),   # queue capacity
           st.one_of(st.none(), st.floats(min_value=5.0, max_value=500.0)))
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_bounds(self, steps, capacity, rate):
        """The ISSUE 9 invariants: queue never exceeds capacity; every
        offer is accounted exactly once; admitted work ends up served,
        expired, or still queued; expired entries are never in a batch."""
        cfg = AdmissionConfig(queue_capacity=capacity, rate=rate)
        ctl = AdmissionController(cfg)
        batcher = MicroBatcher(BatchPolicy(batch_max=4, batch_wait=0.0))
        now = 0.0
        for i, (gap, deadline, drain_now) in enumerate(steps):
            now += gap
            q = _q(i, deadline=deadline, t=now)
            ctl.offer(q, now)
            assert len(ctl.queue) <= capacity
            if drain_now:
                batch, expired = batcher.form_batch(ctl.queue, now)
                ctl.note_expired(len(expired))
                ctl.note_served(len(batch))
                # a deadline-expired query is never dispatched
                for entry in batch:
                    assert not entry.expired_at(now)
                for entry in expired:
                    assert entry.expired_at(now)
        c = ctl.counters
        assert c.offered == len(steps)
        assert c.offered == c.admitted + c.shed_total
        assert c.admitted == c.served + c.expired + len(ctl.queue)
        assert c.max_queue_depth <= capacity

    def test_shed_reason_ordering(self):
        """Draining outranks queue-full outranks rate-limit, and a
        queue-full shed does not burn a bucket token."""
        cfg = AdmissionConfig(queue_capacity=1, rate=1000.0, burst=1.0)
        ctl = AdmissionController(cfg)
        assert ctl.offer(_q(0, t=0.0), 0.0) == ADMITTED
        assert ctl.offer(_q(1, t=0.0), 0.0) == "queue-full"
        assert ctl.bucket.tokens == 0.0  # only the admit consumed a token
        ctl.start_drain()
        assert ctl.offer(_q(2, t=0.0), 0.0) == "draining"

    def test_retry_after_hints(self):
        cfg = AdmissionConfig(queue_capacity=1, rate=10.0, burst=1.0)
        ctl = AdmissionController(cfg)
        assert ctl.offer(_q(0, t=0.0), 0.0) == ADMITTED
        verdict = ctl.offer(_q(1, t=0.0), 0.0)
        assert verdict == "queue-full"
        assert ctl.retry_after(verdict, _q(1, t=0.0), 0.0) >= 0.0
        ctl.queue.clear()
        verdict = ctl.offer(_q(2, t=0.0), 0.0)
        assert verdict == "rate-limit"
        hint = ctl.retry_after(verdict, _q(2, t=0.0), 0.0)
        assert hint == pytest.approx(0.1)
        ctl.start_drain()
        assert ctl.retry_after("draining", _q(3), 0.0) is None

    def test_burn_rate_shedder_trips_and_recovers(self):
        shedder = BurnRateShedder("lat<10ms,target=0.9,burn=1.5",
                                  window_samples=50, min_samples=10)
        for _ in range(20):
            shedder.observe(0.001)
        assert not shedder.tripped
        for _ in range(30):
            shedder.observe(0.5)
        assert shedder.tripped and shedder.trips == 1
        assert shedder.retry_after() > 0
        for _ in range(50):
            shedder.observe(0.001)
        assert not shedder.tripped

    def test_slo_shedding_in_controller(self):
        cfg = AdmissionConfig(queue_capacity=100,
                              slo="lat<10ms,target=0.5,burn=1.0",
                              slo_min_samples=4, slo_window_samples=8)
        ctl = AdmissionController(cfg)
        ctl.note_served(8, [0.5] * 8)   # every sample bad -> burn trips
        assert ctl.offer(_q(0), 0.0) == "slo-burn"
        assert ctl.counters.shed_slo == 1


# ---------------------------------------------------------------------------
# micro-batcher


class TestMicroBatcher:
    def test_fifo_and_max(self):
        batcher = MicroBatcher(BatchPolicy(batch_max=3, batch_wait=0.0))
        from collections import deque

        queue = deque(QueueEntry(_q(i), arrival=0.0) for i in range(5))
        batch, expired = batcher.form_batch(queue, now=1.0)
        assert [e.query.id for e in batch] == ["q0", "q1", "q2"]
        assert not expired and len(queue) == 2

    def test_expired_dropped_before_execution(self):
        batcher = MicroBatcher(BatchPolicy(batch_max=8, batch_wait=0.0))
        from collections import deque

        queue = deque([
            QueueEntry(_q(0, deadline=0.5), arrival=0.0),
            QueueEntry(_q(1, deadline=5.0), arrival=0.0),
            QueueEntry(_q(2), arrival=0.0),              # no deadline
        ])
        batch, expired = batcher.form_batch(queue, now=1.0)
        assert [e.query.id for e in expired] == ["q0"]
        assert [e.query.id for e in batch] == ["q1", "q2"]
        assert batcher.dropped_expired == 1


# ---------------------------------------------------------------------------
# kernels


@pytest.fixture(scope="module")
def serve_tree():
    p = clustered_clumps(1500, seed=12)
    return build_tree(p, tree_type="oct", bucket_size=16)


class TestKernels:
    """The batch functions on one-row batches (what a linger that catches
    one query executes), against the einsum brute force of the bench."""

    def test_knn_matches_brute_force(self, serve_tree):
        pos = serve_tree.particles.position
        rng = np.random.default_rng(5)
        for _ in range(25):
            pt = pos[rng.integers(len(pos))] + rng.normal(0, 0.05, 3)
            res = knn_points(serve_tree, pt[None], 6)
            idx, d2 = res.index[0], res.dist_sq[0]
            delta = pos - pt
            ref = np.einsum("ij,ij->i", delta, delta)
            order = np.lexsort((np.arange(len(pos)), ref))[:6]
            np.testing.assert_array_equal(idx, order)   # canonical (dist, index)
            np.testing.assert_allclose(d2, ref[order], rtol=1e-12, atol=0)
            assert np.all(np.diff(d2) >= 0)  # sorted output

    def test_range_matches_brute_force(self, serve_tree):
        pos = serve_tree.particles.position
        rng = np.random.default_rng(6)
        for _ in range(25):
            pt = pos[rng.integers(len(pos))] + rng.normal(0, 0.02, 3)
            counts, (idx,) = range_points(serve_tree, pt[None], 0.15)
            delta = pos - pt
            ref = np.where(np.einsum("ij,ij->i", delta, delta) <= 0.15**2)[0]
            np.testing.assert_array_equal(idx, np.sort(ref))
            assert counts.tolist() == [len(ref)]

    def test_range_max_results_caps_payload(self, serve_tree):
        pt = serve_tree.particles.position.mean(axis=0)
        _, (full,) = range_points(serve_tree, pt[None], 10.0)
        counts, (capped,) = range_points(serve_tree, pt[None], 10.0, max_results=7)
        assert len(full) == len(serve_tree.particles)
        np.testing.assert_array_equal(capped, np.arange(7))   # the smallest
        assert counts.tolist() == [len(full)]                 # count stays exact

    def test_range_count_exact_when_capped(self, serve_tree):
        """A capped range payload still reports the exact hit count and
        flags the truncation; an uncapped one carries no flag."""
        pt = serve_tree.particles.position.mean(axis=0)
        doc = {"op": "range", "point": [float(c) for c in pt],
               "radius": 10.0}
        capped, = execute_queries(serve_tree, [doc], max_results=7)
        assert capped["count"] == len(serve_tree.particles)
        assert len(capped["idx"]) == 7
        assert capped["truncated"] is True
        full, = execute_queries(serve_tree, [doc],
                                max_results=len(serve_tree.particles))
        assert full["count"] == len(full["idx"]) == len(serve_tree.particles)
        assert "truncated" not in full

    def test_density_positive(self, serve_tree):
        """density = the kNN row's mass over the ball of its k-th distance."""
        pt = serve_tree.particles.position[0]
        doc = {"op": "density", "point": [float(c) for c in pt], "k": 12}
        out, = execute_queries(serve_tree, [doc])
        assert out["rho"] > 0 and out["h"] > 0
        res = knn_points(serve_tree, pt[None], 12)
        assert out["h"] == float(np.sqrt(res.dist_sq[0, -1]))
        msum = float(serve_tree.particles.mass[res.index[0]].sum())
        assert out["rho"] == msum / ((4.0 / 3.0) * np.pi * out["h"] ** 3)
        on_particle = {"op": "density", "point": [float(c) for c in pt], "k": 1}
        out, = execute_queries(serve_tree, [on_particle])    # h = 0: clamped, still JSON
        assert out["h"] == 0.0 and np.isfinite(out["rho"])

    def test_execute_queries_isolates_bad_query(self, serve_tree):
        docs = [
            _q(0).to_wire(),
            {"op": "knn", "point": [0, 0, 0], "k": "NaN"},
            _q(2, op="range", radius=0.1).to_wire(),
        ]
        out = execute_queries(serve_tree, docs)
        assert "idx" in out[0]
        assert "error" in out[1]
        assert "count" in out[2]


# ---------------------------------------------------------------------------
# circuit breaker + executor


class TestCircuitBreaker:
    def test_open_halfopen_close_cycle(self):
        t = [0.0]
        br = CircuitBreaker(threshold=2, cooldown=1.0, clock=lambda: t[0])
        assert br.allow()
        br.record_failure()
        assert br.state == "closed" and br.allow()
        br.record_failure()
        assert br.state == "open" and not br.allow()
        t[0] = 1.5
        assert br.allow() and br.state == "half-open"
        br.record_failure()               # trial fails -> re-open
        assert br.state == "open" and not br.allow()
        t[0] = 3.0
        assert br.allow()
        br.record_success()
        assert br.state == "closed" and br.failures == 0
        assert br.opened == 2


class TestBatchExecutor:
    def test_inline_matches_threads(self):
        state = build_resident_state({"kind": "clumps", "n": 800, "seed": 4})
        queries = [_q(i, point=state.particles.position[i] + 0.01).to_wire()
                   for i in range(40)]
        inline = BatchExecutor(state, mode="inline")
        threads = BatchExecutor(state, mode="threads", workers=3)
        try:
            assert inline.execute(queries) == threads.execute(queries)
        finally:
            threads.shutdown()

    def test_breaker_falls_back_to_serial(self):
        state = build_resident_state({"kind": "cube", "n": 300, "seed": 4})
        from repro.exec.supervise import SupervisorConfig

        ex = BatchExecutor(
            state, mode="threads", workers=2,
            supervisor_config=SupervisorConfig(max_chunk_retries=1,
                                               backoff_base=0.0),
            breaker=CircuitBreaker(threshold=1, cooldown=60.0))
        import threading

        real = ex._chunk_fn

        def flaky(chunk):
            # die only inside pool workers: quarantine-to-serial (which
            # runs in the dispatching thread) still answers correctly
            if threading.current_thread().name.startswith("serve-exec"):
                raise RuntimeError("worker exploded")
            return real(chunk)

        ex._chunk_fn = flaky
        queries = [_q(i, point=(0.5, 0.5, 0.5)).to_wire() for i in range(8)]
        out = ex.execute(queries)
        # every pool attempt failed -> chunks quarantined to serial; the
        # degraded run trips the breaker (threshold=1) but answers are good
        assert len(out) == len(queries) and all("idx" in d for d in out)
        assert ex.breaker.state == "open"
        assert ex.supervisor.total_stats.quarantined > 0
        out = ex.execute(queries)        # breaker open -> straight to serial
        assert len(out) == len(queries) and all("idx" in d for d in out)
        assert ex.serial_batches >= 1


    def test_negative_worker_count_is_rejected(self):
        state = build_resident_state({"kind": "cube", "n": 300, "seed": 4})
        for mode in ("threads", "processes"):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                BatchExecutor(state, mode=mode, workers=-3)

    def test_serve_negative_workers_exits_2(self, capsys):
        from repro.__main__ import main

        rc = main(["serve", "--n", "300", "--executor", "processes",
                   "--workers", "-3", "--validate", "--queries", "20"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: workers must be >= 1, got -3"]

    def test_hung_process_worker_does_not_block_exit(self):
        """Deadlines quarantine both chunks of a batch whose process
        workers hang; shutdown must then kill the hung workers, or the
        interpreter waits on them at exit."""
        import os
        import signal
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import os, time
            import repro.serve.executor as ex
            from repro.exec.supervise import SupervisorConfig
            from repro.serve import build_resident_state

            parent = os.getpid()
            real = ex.execute_queries

            def hang_in_workers(*args, **kwargs):
                if os.getpid() != parent:
                    time.sleep(120)
                return real(*args, **kwargs)

            ex.execute_queries = hang_in_workers
            state = build_resident_state({"kind": "cube", "n": 300, "seed": 4})
            executor = ex.BatchExecutor(
                state, mode="processes", workers=2,
                supervisor_config=SupervisorConfig(
                    chunk_deadline=0.3, max_chunk_retries=1, backoff_base=0.0))
            queries = [{"id": f"q{i}", "op": "knn", "point": [0.5, 0.5, 0.5],
                        "k": 2} for i in range(4)]
            out = executor.execute(queries)
            assert [d["idx"] for d in out] == [d["idx"] for d in real(
                state.tree, queries)]
            assert executor.supervisor.total_stats.quarantined == 2
            executor.shutdown()
            print("answered")
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("interpreter hung at exit behind a hung serve worker")
        assert proc.returncode == 0, err
        assert "answered" in out


# ---------------------------------------------------------------------------
# resident state + checkpoint round-trip


class TestResident:
    def test_checkpoint_roundtrip_bit_identical(self, tmp_path):
        state = build_resident_state(
            {"kind": "clumps", "n": 500, "seed": 9, "bucket_size": 8})
        path = str(tmp_path / "ck.npz")
        checkpoint_resident(state, path)
        restored = build_resident_state({"checkpoint": path})
        assert restored.spec["kind"] == "clumps"     # generator spec adopted
        np.testing.assert_array_equal(restored.particles.position,
                                      state.tree.particles.position)
        q = _q(0, point=state.particles.position[3] + 0.02)
        a = execute_queries(state.tree, [q.to_wire()])
        b = execute_queries(restored.tree, [q.to_wire()])
        assert a == b

    def test_drain_checkpoint_naming_a_tree_builder_still_resumes(self, tmp_path):
        """Drain checkpoints (and specs) written up to PR 20 name a
        ``tree_builder``; the key is ignored: the same tree, the same
        answers, and the resumed server's own drain checkpoint audits clean
        against a fresh one."""
        from repro.resilience import audit_state_files, load_checkpoint, save_checkpoint

        state = build_resident_state(
            {"kind": "clumps", "n": 500, "seed": 9, "bucket_size": 8})
        fresh, old = str(tmp_path / "fresh.npz"), str(tmp_path / "old.npz")
        checkpoint_resident(state, fresh)
        ckpt = load_checkpoint(fresh)
        assert "tree_builder" not in ckpt.app_config["tree"]
        ckpt.app_config["tree"]["tree_builder"] = "recursive"
        save_checkpoint(old, ckpt)
        restored = build_resident_state({"checkpoint": old, "tree_builder": "recursive"})
        assert restored.spec == state.spec
        for name in ("parent", "first_child", "n_children", "pstart", "pend",
                     "box_lo", "box_hi", "level", "key"):
            assert getattr(restored.tree, name).tobytes() == getattr(state.tree, name).tobytes()
        wire = [_q(i, point=state.particles.position[i] + 0.02).to_wire() for i in range(8)]
        assert execute_queries(restored.tree, wire) == execute_queries(state.tree, wire)
        again = str(tmp_path / "again.npz")
        checkpoint_resident(restored, again)
        assert audit_state_files(fresh, again) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset kind"):
            build_resident_state({"kind": "torus", "n": 10})


# ---------------------------------------------------------------------------
# traffic + DES model


class TestTrafficAndModel:
    def test_trace_deterministic_and_sorted(self):
        shape = TrafficShape(rate=300, duration=1.0, burst_factor=4.0,
                             think_tail=0.1, deadline=0.0, deadline_frac=0.3)
        a = generate_traffic(shape, np.zeros(3), np.ones(3), seed=7)
        b = generate_traffic(shape, np.zeros(3), np.ones(3), seed=7)
        assert len(a) == len(b) > 0
        for qa, qb in zip(a, b):
            assert qa.t == qb.t and qa.deadline == qb.deadline
            np.testing.assert_array_equal(qa.point, qb.point)
        ts = [q.t for q in a]
        assert ts == sorted(ts)
        c = generate_traffic(shape, np.zeros(3), np.ones(3), seed=8)
        assert [q.t for q in c] != ts

    def test_burst_raises_local_rate(self):
        shape = TrafficShape(rate=200, duration=2.0, burst_factor=5.0,
                             burst_window=(0.4, 0.6))
        trace = generate_traffic(shape, np.zeros(3), np.ones(3), seed=1)
        ts = np.array([q.t for q in trace])
        burst = np.sum((ts >= 0.8) & (ts < 1.2)) / 0.4
        calm = np.sum(ts < 0.8) / 0.8
        assert burst > 2.5 * calm

    def test_sim_conservation_under_faults(self):
        shape = TrafficShape(rate=500, duration=1.0, burst_factor=4.0,
                             deadline=0.0, deadline_frac=0.2)
        trace = generate_traffic(shape, np.zeros(3), np.ones(3), seed=3)
        res = simulate_service(
            trace, AdmissionConfig(queue_capacity=32, rate=200.0, burst=20),
            BatchPolicy(batch_max=16, batch_wait=0.0),
            ServiceModel(straggler_prob=0.2, crash_prob=0.1), seed=3)
        c = res.counters
        assert c["offered"] == len(trace)
        assert c["offered"] == c["admitted"] + c["shed_total"]
        assert c["admitted"] == c["served"] + c["expired"] + c["failed"]
        assert c["max_queue_depth"] <= 32
        assert res.crashes > 0 or res.stragglers > 0

    def test_sim_sheds_under_overload_with_bounded_queue(self):
        """The acceptance shape: 4x overload must shed, not queue."""
        shape = TrafficShape(rate=2000, duration=1.0, burst_factor=4.0)
        trace = generate_traffic(shape, np.zeros(3), np.ones(3), seed=2)
        res = simulate_service(
            trace, AdmissionConfig(queue_capacity=64, rate=500.0, burst=50),
            BatchPolicy(batch_max=32, batch_wait=0.0), ServiceModel(), seed=2)
        assert res.counters["shed_total"] > 0
        assert res.counters["max_queue_depth"] <= 64
        assert res.latency.count == res.counters["served"]
