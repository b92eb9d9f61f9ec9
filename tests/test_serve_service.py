"""End-to-end service tests: in-process round trips, the socket server,
overload shedding with retry hints, deadline expiry, drain + restart
bit-identity, DES-vs-real accounting agreement, and status frames.

No pytest-asyncio here: each test drives its own event loop through
``asyncio.run`` so the suite has zero plugin dependencies.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.obs.top import Dashboard, StatusWriter, read_status_file
from repro.serve import (
    AdmissionConfig,
    BatchPolicy,
    InProcessClient,
    Query,
    ServeConfig,
    ServiceModel,
    SocketServer,
    TrafficShape,
    accounting_delta,
    generate_traffic,
    run_trace,
    simulate_service,
    socket_query,
)
from repro.serve.service import QueryService

SMALL = {"kind": "clumps", "n": 1200, "seed": 7,
         "tree_type": "oct", "bucket_size": 16}


def _service(**kw) -> QueryService:
    kw.setdefault("dataset", dict(SMALL))
    kw.setdefault("status_every", 0.0)   # tests emit status explicitly
    return QueryService(ServeConfig(**kw))


def _q(i, point, **kw) -> Query:
    return Query(id=f"q{i}", op=kw.pop("op", "knn"),
                 point=np.asarray(point, float), **kw)


async def _stopped(service: QueryService, coro):
    try:
        return await coro
    finally:
        await service.stop()


class TestInProcess:
    def test_roundtrip_all_ops(self):
        service = _service()
        pos = service.state.particles.position

        async def go():
            await service.start()
            client = InProcessClient(service)
            queries = [
                _q(0, pos[10] + 0.01, k=5),
                _q(1, pos[20], op="range", radius=0.1),
                _q(2, pos[30], op="density", k=12),
            ]
            return await client.query_many(queries)

        r = asyncio.run(_stopped(service, go()))
        assert [x.status for x in r] == ["ok", "ok", "ok"]
        assert len(r[0].result["idx"]) == 5
        assert r[0].result["dist"] == sorted(r[0].result["dist"])
        assert r[1].result["count"] >= 1
        assert r[2].result["rho"] > 0
        assert r[0].queue_s is not None and r[0].service_s is not None
        c = service.admission.counters
        assert c.offered == 3 and c.served == 3 and c.shed_total == 0

    def test_invalid_query_is_error_not_crash(self):
        service = _service()

        async def go():
            await service.start()
            client = InProcessClient(service)
            bad = await client.query(_q(0, (0.5, 0.5, 0.5), op="warp"))
            good = await client.query(_q(1, (0.5, 0.5, 0.5)))
            return bad, good

        bad, good = asyncio.run(_stopped(service, go()))
        assert bad.status == "error" and "unknown op" in bad.error
        assert good.status == "ok"
        # invalid queries never enter admission accounting
        assert service.admission.counters.offered == 1
        assert service.invalid == 1

    def test_deadline_zero_expires_without_dispatch(self):
        service = _service()
        pos = service.state.particles.position

        async def go():
            await service.start()
            client = InProcessClient(service)
            queries = [_q(i, pos[i], deadline=0.0) for i in range(10)]
            queries += [_q(100 + i, pos[i]) for i in range(5)]
            return await client.query_many(queries)

        r = asyncio.run(_stopped(service, go()))
        assert sum(x.status == "expired" for x in r) == 10
        assert sum(x.status == "ok" for x in r) == 5
        c = service.admission.counters
        assert c.expired == 10 and c.served == 5
        assert service.batcher.dropped_expired == 10
        # an expired query must never have reached the executor
        assert c.admitted == c.served + c.expired

    def test_overload_sheds_with_retry_after(self):
        service = _service(
            admission=AdmissionConfig(queue_capacity=8),
            batch_max=8, batch_wait=0.0)
        pos = service.state.particles.position

        async def go():
            await service.start()
            client = InProcessClient(service)
            queries = [_q(i, pos[i % len(pos)]) for i in range(300)]
            return await client.query_many(queries)

        r = asyncio.run(_stopped(service, go()))
        shed = [x for x in r if x.status == "shed"]
        assert shed, "300 synchronous offers into a queue of 8 must shed"
        assert all(x.reason == "queue-full" for x in shed)
        assert all(x.retry_after is not None and x.retry_after >= 0
                   for x in shed)
        c = service.admission.counters
        assert c.offered == 300
        assert c.offered == c.admitted + c.shed_total
        assert c.max_queue_depth <= 8


class TestSocketServer:
    def test_unix_socket_roundtrip_and_malformed_line(self, tmp_path):
        service = _service()
        pos = service.state.particles.position
        sock = str(tmp_path / "serve.sock")

        async def go():
            await service.start()
            server = SocketServer(service, socket_path=sock)
            await server.start()
            try:
                wire = [_q(i, pos[i]).to_wire() for i in range(20)]
                docs = await socket_query(server.where, wire)
                # malformed line: server answers with an error response
                # on the same connection instead of dropping it
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"this is not json\n")
                writer.write((json.dumps(_q(99, pos[0]).to_wire()) + "\n")
                             .encode())
                await writer.drain()
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return docs, [json.loads(x) for x in raw.splitlines()]
            finally:
                await server.stop()

        docs, tail = asyncio.run(_stopped(service, go()))
        assert len(docs) == 20
        assert all(d["status"] == "ok" for d in docs)
        assert {d["id"] for d in docs} == {f"q{i}" for i in range(20)}
        by_status = {d["status"] for d in tail}
        assert by_status == {"error", "ok"}
        err = next(d for d in tail if d["status"] == "error")
        assert "not valid JSON" in err["error"]

    def test_oversized_line_gets_error_not_dropped_connection(self, tmp_path):
        """A line past MAX_LINE must cost one error reply, not the stream
        (and not a silent skip that starves a pipelining client)."""
        from repro.serve.server import MAX_LINE

        service = _service()
        pos = service.state.particles.position
        sock = str(tmp_path / "serve.sock")

        async def go():
            await service.start()
            server = SocketServer(service, socket_path=sock)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"x" * (MAX_LINE + 10) + b"\n")
                writer.write((json.dumps(_q(1, pos[0]).to_wire()) + "\n")
                             .encode())
                await writer.drain()
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return [json.loads(x) for x in raw.splitlines()]
            finally:
                await server.stop()

        docs = asyncio.run(_stopped(service, go()))
        assert len(docs) == 2   # one reply per line sent
        statuses = sorted(d["status"] for d in docs)
        assert statuses == ["error", "ok"]
        err = next(d for d in docs if d["status"] == "error")
        assert "exceeds" in err["error"]

    def test_wire_t_is_untrusted(self, tmp_path):
        """A client-supplied scheduling offset must not drive the token
        bucket's clock: one huge ``t`` on the wire would otherwise stop
        all refills and shed every later query forever."""
        service = _service(
            admission=AdmissionConfig(queue_capacity=64, rate=1000.0,
                                      burst=8))
        pos = service.state.particles.position
        sock = str(tmp_path / "serve.sock")

        async def go():
            await service.start()
            server = SocketServer(service, socket_path=sock)
            await server.start()
            try:
                poisoned = _q(0, pos[0]).to_wire()
                poisoned["t"] = 1e12
                first = await socket_query(server.where, [poisoned])
                later = await socket_query(
                    server.where, [_q(i, pos[i]).to_wire()
                                   for i in range(1, 5)])
                return first, later
            finally:
                await server.stop()

        first, later = asyncio.run(_stopped(service, go()))
        assert first[0]["status"] == "ok"
        # the bucket metered on the wall clock, not the wire ``t``
        bucket = service.admission.bucket
        assert bucket._last is not None and bucket._last < 1e11
        assert all(d["status"] == "ok" for d in later)


class TestDrainRestart:
    def test_drain_then_resume_bit_identical_answers(self, tmp_path):
        """The zero-downtime restart contract: a drained checkpoint,
        resumed, answers byte-for-byte identically — and the resumed
        server's own drain checkpoint is byte-identical to the first."""
        ck1 = tmp_path / "gen1"
        ck2 = tmp_path / "gen2"
        service = _service(checkpoint_dir=str(ck1),
                           admission=AdmissionConfig(queue_capacity=64))
        pos = service.state.particles.position
        rng = np.random.default_rng(11)
        points = pos[rng.integers(0, len(pos), 30)] + rng.normal(0, 0.03, (30, 3))
        queries = [_q(i, p, k=6) for i, p in enumerate(points)]

        async def run_gen(svc):
            await svc.start()
            client = InProcessClient(svc)
            answers = await client.query_many([Query.from_wire(q.to_wire())
                                               for q in queries])
            path = await svc.drain()
            # post-drain offers shed with reason "draining", no retry hint
            late = await client.query(_q(999, points[0]))
            return answers, path, late

        a1, path1, late = asyncio.run(_stopped(service, run_gen(service)))
        assert late.status == "shed" and late.reason == "draining"
        assert late.retry_after is None

        resumed = _service(dataset={"checkpoint": path1},
                           checkpoint_dir=str(ck2),
                           admission=AdmissionConfig(queue_capacity=64))
        a2, path2, _ = asyncio.run(_stopped(resumed, run_gen(resumed)))

        for r1, r2 in zip(a1, a2):
            assert r1.status == r2.status == "ok"
            assert r1.result == r2.result   # exact floats, not approx

        # drain checkpoints byte-identical across the restart
        assert (ck1 / "serve_ckpt.npz").read_bytes() == \
               (ck2 / "serve_ckpt.npz").read_bytes()

    def test_drain_before_start_does_not_hang(self, tmp_path):
        """drain() before start() (or after stop()) has no dispatcher to
        signal _drained — it must settle immediately, not wait forever."""
        service = _service(checkpoint_dir=str(tmp_path))

        async def go():
            return await asyncio.wait_for(service.drain(), timeout=5)

        path = asyncio.run(_stopped(service, go()))
        assert path is not None and (tmp_path / "serve_ckpt.npz").exists()
        assert service.admission.draining


class TestDESAgreement:
    def _trace(self, rate, deadline_frac=0.0, n=400):
        shape = TrafficShape(rate=rate, duration=1.0, burst_factor=3.0,
                             deadline=0.0, deadline_frac=deadline_frac)
        return generate_traffic(shape, np.zeros(3), np.ones(3), seed=21,
                                max_queries=n)

    def _admission(self):
        # rate-limit + deadline shedding only: both are pure functions of
        # the trace (bucket consumes query.t, deadline 0.0 always expires
        # pre-dispatch), so sim and real must agree *exactly*.  Queue and
        # SLO sheds depend on wall-clock timing and are excluded here.
        return AdmissionConfig(queue_capacity=10_000, rate=150.0, burst=20)

    def test_real_matches_sim_accounting(self):
        trace = self._trace(rate=600, deadline_frac=0.3)
        sim = simulate_service(trace, self._admission(),
                               BatchPolicy(batch_max=32, batch_wait=0.0),
                               ServiceModel(), seed=21)
        service = _service(admission=self._admission(),
                           batch_max=32, batch_wait=0.0)

        async def go():
            return await run_trace(service, trace, pace=False)

        real = asyncio.run(_stopped(service, go()))
        delta = accounting_delta(real.accounting, sim.accounting)
        assert delta == {}, f"real vs sim diverged: {delta}"
        assert sim.accounting["shed_total"] > 0      # the regime is exercised
        assert sim.accounting["expired"] > 0

    def test_sim_faults_do_not_change_accounting(self):
        """Stragglers and crashes make the sim *late*, not lossy — the
        conservation ledger is identical with and without faults in the
        trace-deterministic regime."""
        trace = self._trace(rate=600, deadline_frac=0.2)
        clean = simulate_service(trace, self._admission(),
                                 BatchPolicy(batch_max=32, batch_wait=0.0),
                                 ServiceModel(), seed=21)
        faulty = simulate_service(trace, self._admission(),
                                  BatchPolicy(batch_max=32, batch_wait=0.0),
                                  ServiceModel(straggler_prob=0.3,
                                               crash_prob=0.15), seed=21)
        assert accounting_delta(faulty.accounting, clean.accounting) == {}
        assert faulty.makespan > clean.makespan


class TestStatusFrames:
    def test_snapshot_contents_and_writer(self, tmp_path):
        status_file = tmp_path / "serve_status.jsonl"
        service = _service()
        writer = StatusWriter(status_file)
        service.add_status_consumer(writer.update)
        pos = service.state.particles.position

        async def go():
            await service.start()
            client = InProcessClient(service)
            await client.query_many([_q(i, pos[i]) for i in range(12)])
            service.emit_status()
            await service.drain()   # emits the final drained frame

        asyncio.run(_stopped(service, go()))
        frames = read_status_file(status_file)
        assert len(frames) >= 2
        last = frames[-1]
        assert last["schema"] == "repro.status/1"
        assert last["pipeline"] == "serve"
        serve = last["serve"]
        assert serve["served"] == 12
        assert serve["queue_depth"] == 0
        assert serve["draining"] is True
        assert serve["breaker"] == "closed"
        assert serve["p99_s"] is not None
        # the dashboard renders the serve panel from the same frame
        screen = Dashboard(use_ansi=False).render(last)
        assert "serve" in screen and "DRAINING" in screen
        assert "served 12" in screen
        assert "breaker closed" in screen

    def test_shed_and_breaker_visible_in_panel(self):
        service = _service(admission=AdmissionConfig(queue_capacity=4),
                           batch_max=4, batch_wait=0.0)
        pos = service.state.particles.position

        async def go():
            await service.start()
            client = InProcessClient(service)
            await client.query_many([_q(i, pos[i % 50]) for i in range(200)])

        asyncio.run(_stopped(service, go()))
        snap = service.snapshot()
        assert snap["serve"]["shed_queue"] > 0
        screen = Dashboard(use_ansi=False).render(snap)
        assert "shed" in screen and "% of" in screen


class TestBenchHarness:
    def test_paced_overload_bench_sheds_with_bounded_tail(self):
        """Scaled-down acceptance scenario: offered load is a multiple of
        the admitted rate; the bench must shed explicitly (with hints),
        keep the queue bounded, and account for every query."""
        service = _service(
            admission=AdmissionConfig(queue_capacity=64, rate=200.0,
                                      burst=16),
            batch_max=32, batch_wait=0.0)
        shape = TrafficShape(rate=800, duration=1.0, burst_factor=4.0)
        trace = generate_traffic(shape, np.zeros(3), np.ones(3), seed=5,
                                 max_queries=500)

        async def go():
            return await run_trace(service, trace, pace=True, speed=4.0)

        res = asyncio.run(_stopped(service, go()))
        assert res.statuses.get("shed", 0) > 0
        assert res.retry_after_missing == 0   # every shed carries a hint
        assert res.counters["max_queue_depth"] <= 64
        total = sum(res.statuses.values())
        assert total == len(trace)
        acct = res.accounting
        assert acct["offered"] == acct["admitted"] + acct["shed_total"]
        if res.served:
            assert res.quantile(0.99) < 5.0   # tail bounded, not unbounded


@pytest.mark.slow
class TestProcessExecutor:
    def test_process_pool_answers_match_inline(self):
        inline = _service()
        procs = _service(executor="processes", workers=2)
        pos = inline.state.particles.position
        queries = [_q(i, pos[i] + 0.01, k=4) for i in range(8)]

        async def go(svc):
            await svc.start()
            return await InProcessClient(svc).query_many(
                [Query.from_wire(q.to_wire()) for q in queries])

        try:
            a = asyncio.run(_stopped(inline, go(inline)))
            b = asyncio.run(_stopped(procs, go(procs)))
        finally:
            procs.executor.shutdown()
        for r1, r2 in zip(a, b):
            assert r1.status == r2.status == "ok"
            assert r1.result == r2.result
