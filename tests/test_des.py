"""The discrete-event simulation core: event loop, resources, worker pools."""

import pytest

from repro.runtime import FifoResource, Simulator, WorkerPool
from repro.runtime.tracing import ActivityTrace, activity_totals, utilization_profile


class TestSimulator:
    def test_event_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        end = sim.run()
        assert order == ["a", "b", "c"]
        assert end == 3.0
        assert sim.events_processed == 3

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(0.5, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_run_until(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(10.0, lambda: hits.append(2))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        assert sim.pending == 1
        sim.run()
        assert hits == [1, 2]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_at_absolute(self):
        sim = Simulator()
        out = []
        sim.at(2.5, lambda: out.append(sim.now))
        sim.run()
        assert out == [2.5]

    def test_determinism(self):
        def build():
            sim = Simulator()
            log = []
            res = FifoResource(sim, capacity=2)
            for i in range(10):
                sim.schedule(0.1 * (i % 3), lambda i=i: res.submit(0.5, lambda i=i: log.append((i, sim.now))))
            sim.run()
            return log

        assert build() == build()


class TestFifoResource:
    def test_serialises_beyond_capacity(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=1)
        done = []
        for i in range(3):
            res.submit(1.0, lambda i=i: done.append((i, sim.now)))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]
        assert res.busy_time == pytest.approx(3.0)
        assert res.jobs_served == 3
        assert res.max_queue >= 1

    def test_parallel_slots(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=3)
        done = []
        for i in range(3):
            res.submit(1.0, lambda i=i: done.append(sim.now))
        sim.run()
        assert done == [1.0, 1.0, 1.0]

    def test_on_start_fires_at_service_begin(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=1)
        starts = []
        res.submit(2.0, on_start=lambda: starts.append(sim.now))
        res.submit(1.0, on_start=lambda: starts.append(sim.now))
        sim.run()
        assert starts == [0.0, 2.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FifoResource(Simulator(), capacity=0)


class TestWorkerPool:
    def test_parallelism_bounded_by_workers(self):
        sim = Simulator()
        pool = WorkerPool(sim, n_workers=2)
        done = []
        for i in range(4):
            pool.submit(1.0, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 1.0, 2.0, 2.0]
        assert pool.busy_time == pytest.approx(4.0)
        assert pool.tasks_run == 4

    def test_least_busy_dispatch(self):
        """Targeted tasks go to the worker with the least backlog."""
        sim = Simulator()
        pool = WorkerPool(sim, n_workers=2)
        ends = []
        pool.submit_to_least_busy(5.0)        # worker 0
        pool.submit_to_least_busy(1.0)        # worker 1 (less backlog)
        pool.submit_to_least_busy(1.0, on_done=lambda: ends.append(sim.now))
        sim.run()
        # third task lands on worker 1 behind the 1.0s task -> done at 2.0
        assert ends == [2.0]

    def test_trace_records_labels(self):
        sim = Simulator()
        trace = ActivityTrace()
        pool = WorkerPool(sim, n_workers=1, trace=trace, process_id=3)
        pool.submit(1.0, label="local traversal")
        pool.submit(0.5, label="cache insertion")
        sim.run()
        totals = activity_totals(trace)
        assert totals["local traversal"] == pytest.approx(1.0)
        assert totals["cache insertion"] == pytest.approx(0.5)
        assert all(iv[0] == 3 for iv in trace.intervals)

    def test_on_start_chains_submissions(self):
        sim = Simulator()
        pool = WorkerPool(sim, n_workers=1)
        log = []
        pool.submit(1.0, on_start=lambda: pool.submit(0.5, on_done=lambda: log.append(sim.now)))
        sim.run()
        assert log == [1.5]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(Simulator(), n_workers=0)


class TestUtilizationProfile:
    def test_binning(self):
        trace = ActivityTrace()
        # two workers: one busy 0-10 on A, one busy 5-10 on B
        trace.record(0, 0, 0.0, 10.0, "A")
        trace.record(0, 1, 5.0, 10.0, "B")
        edges, series = utilization_profile(trace, n_workers_total=2, n_bins=10)
        assert len(edges) == 11
        assert series["A"][0] == pytest.approx(0.5)   # 1 of 2 workers
        assert series["B"][0] == pytest.approx(0.0)
        assert series["A"][-1] + series["B"][-1] == pytest.approx(1.0)

    def test_total_time_preserved(self):
        trace = ActivityTrace()
        trace.record(0, 0, 0.3, 7.7, "X")
        edges, series = utilization_profile(trace, n_workers_total=1, n_bins=7)
        width = edges[1] - edges[0]
        assert series["X"].sum() * width * 1 == pytest.approx(7.4)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ActivityTrace().record(0, 0, 2.0, 1.0, "bad")

    def test_empty_trace(self):
        edges, series = utilization_profile(ActivityTrace(), 4)
        assert series == {}


class TestSimulatorEdgeCases:
    def test_run_on_empty_heap_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_resource_done_callback_optional(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=1)
        res.submit(1.0)  # no callbacks at all
        assert sim.run() == 1.0

    def test_pool_mixed_bound_and_shared(self):
        """Bound (least-busy) tasks take precedence over the shared queue
        on their worker, shared tasks fill the idle workers."""
        sim = Simulator()
        pool = WorkerPool(sim, n_workers=2)
        done = []
        pool.submit_to_least_busy(2.0, on_done=lambda: done.append("bound"))
        pool.submit(1.0, on_done=lambda: done.append("shared"))
        pool.submit(1.0, on_done=lambda: done.append("shared2"))
        sim.run()
        # worker 0 runs the bound task; worker 1 drains both shared tasks
        assert done == ["shared", "bound", "shared2"] or done == ["shared", "shared2", "bound"]
        assert sim.now == pytest.approx(2.0)


class TestTimers:
    def test_cancelled_timer_never_fires(self):
        sim = Simulator()
        fired = []
        t = sim.schedule(1.0, lambda: fired.append(1))
        assert t.active
        t.cancel()
        assert not t.active
        sim.run()
        assert fired == []

    def test_cancellation_is_clock_invisible(self):
        """A run whose timers are all cancelled is bit-identical to a run
        that never scheduled them: same clock, same event count."""
        plain = Simulator()
        plain.schedule(1.0, lambda: None)
        plain.run()

        timed = Simulator()
        timed.schedule(1.0, lambda: None)
        t = timed.schedule(5.0, lambda: None)  # would have been the last event
        t.cancel()
        timed.run()
        assert timed.now == plain.now == 1.0
        assert timed.events_processed == plain.events_processed == 1

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        drop.cancel()
        assert sim.pending == 1
        assert keep.active

    def test_silent_events_do_not_count(self):
        """Silent timers advance the clock (causality) but land in a
        separate counter, so probes that fire-and-do-nothing leave the
        public event count untouched."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None, silent=True)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1
        assert sim.silent_events == 1
        assert sim.now == 2.0


class TestInputValidation:
    def test_schedule_rejects_nan_and_inf(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                sim.schedule(bad, lambda: None)

    def test_schedule_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1e-9, lambda: None)

    def test_at_rejects_past_times(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(0.5, lambda: None)

    def test_resource_rejects_bad_service_times(self):
        sim = Simulator()
        res = FifoResource(sim)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                res.submit(bad)

    def test_pool_rejects_bad_service_times(self):
        sim = Simulator()
        pool = WorkerPool(sim, n_workers=2)
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError):
                pool.submit(bad)
            with pytest.raises(ValueError):
                pool.submit_to_least_busy(bad)
            with pytest.raises(ValueError):
                pool.preempt_all(bad)


class TestFaultSupportPrimitives:
    def test_backlog_jobs_tracks_busy_plus_queue(self):
        sim = Simulator()
        res = FifoResource(sim, capacity=1)
        assert res.backlog_jobs == 0
        res.submit(1.0)
        res.submit(1.0)
        res.submit(1.0)
        assert res.backlog_jobs == 3  # one in service, two queued
        sim.run(until=1.5)
        assert res.backlog_jobs == 2
        sim.run()
        assert res.backlog_jobs == 0

    def test_preempt_all_stalls_every_worker(self):
        """The crash-restart model: queued work waits out the restart
        window on every worker before resuming."""
        sim = Simulator()
        pool = WorkerPool(sim, n_workers=2)
        done = []
        pool.submit(1.0, on_done=lambda: done.append("a"))
        pool.submit(1.0, on_done=lambda: done.append("b"))
        pool.submit(1.0, on_done=lambda: done.append("queued"))
        pool.preempt_all(10.0)
        sim.run()
        # the two running tasks finish at t=1, then both workers stall for
        # 10, then the queued task runs: 1 + 10 + 1
        assert sim.now == pytest.approx(12.0)
        assert done[:2] == ["a", "b"] and done[-1] == "queued"
