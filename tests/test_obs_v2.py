"""Observability v2: flight recorder, mergeable latency histograms,
trace-context propagation, SLOs, and the live dashboard.

The physics-facing invariant — telemetry on/off never changes results —
is pinned in ``test_obs.py``; this file covers the new layer on top:

* ``Log2Histogram`` algebra (hypothesis): merge is exact and order-free,
  quantile estimates stay within one log2 bucket of the exact order
  statistic;
* worker-clock task spans nest under their owning phase span for the
  thread AND process backends (satellite: no more ``start = now - dur``);
* the exec worker-tree cache hit rate surfaces in counters and reports;
* SLO burn-rate evaluation over real runs and DES straggler traffic;
* validators, dashboard rendering, status files, and the CLI surface.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.apps.gravity import GravityDriver
from repro.core import Configuration
from repro.core.observers import StatusFeed
from repro.obs import (
    FLIGHT_SCHEMA,
    NULL_FLIGHT,
    STATUS_SCHEMA,
    Dashboard,
    FlightRecorder,
    Log2Histogram,
    StatusWriter,
    Telemetry,
    chrome_trace,
    evaluate_slo,
    follow_status_file,
    format_flight_dump,
    load_flight_dump,
    parse_slo_spec,
    quantile_label,
    read_status_file,
    samples_from_reports,
    samples_from_sim,
    use_telemetry,
    validate_chrome_trace,
    validate_flight_dump,
    validate_slo_report,
)
from repro.obs.attr import ARRAY_FIELDS
from repro.particles import clustered_clumps

# Stay inside the histogram's bucketed range [2^-20, 2^12] so the
# within-one-bucket quantile property is exact (the under/overflow
# buckets only promise clamping to the observed min/max).
positive_floats = st.floats(min_value=1e-6, max_value=4000.0,
                            allow_nan=False, allow_infinity=False)
sample_lists = st.lists(positive_floats, min_size=1, max_size=200)


def _hist(values) -> Log2Histogram:
    h = Log2Histogram()
    for v in values:
        h.observe(v)
    return h


# ---------------------------------------------------------------------------
# Log2Histogram algebra
# ---------------------------------------------------------------------------

class TestLog2Histogram:
    @given(sample_lists, sample_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, a, b):
        merged = _hist(a)
        merged.merge(_hist(b))
        direct = _hist(a + b)
        assert np.array_equal(merged.counts, direct.counts)
        assert merged.count == direct.count == len(a) + len(b)
        assert merged.sum == pytest.approx(direct.sum)
        assert merged.min == direct.min and merged.max == direct.max

    @given(sample_lists, sample_lists, sample_lists)
    @settings(max_examples=40, deadline=None)
    def test_merge_commutative_and_associative(self, a, b, c):
        ab_c = _hist(a)
        ab_c.merge(_hist(b))
        ab_c.merge(_hist(c))
        c_ba = _hist(c)
        ba = _hist(b)
        ba.merge(_hist(a))
        c_ba.merge(ba)
        assert np.array_equal(ab_c.counts, c_ba.counts)
        assert ab_c.count == c_ba.count
        assert ab_c.sum == pytest.approx(c_ba.sum)

    @given(sample_lists, st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    @settings(max_examples=60, deadline=None)
    def test_quantile_within_one_bucket(self, values, q):
        """The estimate lands in the same log2 bucket as the exact order
        statistic, so it is within a factor of 2 either way."""
        h = _hist(values)
        exact = sorted(values)[max(0, math.ceil(q * len(values)) - 1)]
        est = h.quantile(q)
        assert exact / 2.01 <= est <= exact * 2.01

    @given(sample_lists)
    @settings(max_examples=40, deadline=None)
    def test_quantile_clamped_to_observed_range(self, values):
        h = _hist(values)
        for q in (0.001, 0.5, 0.999, 1.0):
            assert min(values) <= h.quantile(q) <= max(values)
        with pytest.raises(ValueError):
            h.quantile(0.0)

    def test_observe_many_matches_loop(self, rng):
        values = rng.lognormal(mean=-7.0, sigma=2.0, size=2000)
        vec = Log2Histogram()
        vec.observe_many(values)
        loop = _hist(values)
        assert np.array_equal(vec.counts, loop.counts)
        assert vec.count == loop.count
        assert vec.sum == pytest.approx(loop.sum)

    def test_fork_absorb_protocol(self):
        parent = _hist([1.0, 2.0])
        child = parent.fork()
        assert child.count == 0
        child.observe(4.0)
        parent.absorb(child)
        assert parent.count == 3
        assert parent.sum == pytest.approx(7.0)

    def test_dict_roundtrip_and_labels(self):
        h = _hist([0.001, 0.01, 0.1])
        d = h.to_dict()
        back = Log2Histogram.from_dict(d)
        assert np.array_equal(back.counts, h.counts)
        assert back.quantile(0.5) == h.quantile(0.5)
        assert quantile_label(0.999) == "p99.9"
        assert quantile_label(0.5) == "p50"

    def test_empty_histogram(self):
        h = Log2Histogram()
        assert h.count == 0
        # no samples → no order statistic; nan, not a fake 0.0
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.quantile(0.99))
        assert h.mean == 0.0
        # serialization stays clean: no nan leaks into JSON documents
        d = h.to_dict()
        assert d["quantiles"] == {}
        assert json.loads(json.dumps(d)) == d


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_bounds_and_drop_count(self):
        fr = FlightRecorder(capacity=8)
        for i in range(20):
            fr.record("tick", i=i)
        assert len(fr) == 8
        assert fr.recorded == 20 and fr.dropped == 12
        kinds = [kind for _, kind, _ in fr.snapshot()]
        assert kinds == ["tick"] * 8
        assert fr.snapshot()[-1][2] == {"i": 19}

    def test_wrap_boundary_exact_capacity(self, tmp_path):
        """Exactly ``capacity`` events: nothing dropped, order untouched."""
        fr = FlightRecorder(capacity=8)
        for i in range(8):
            fr.record("tick", i=i)
        assert len(fr) == 8 and fr.recorded == 8 and fr.dropped == 0
        assert [e[2]["i"] for e in fr.snapshot()] == list(range(8))
        doc = load_flight_dump(fr.dump(tmp_path / "full.json"))
        assert [e["detail"]["i"] for e in doc["events"]] == list(range(8))
        assert validate_flight_dump(doc) == []

    def test_wrap_boundary_capacity_plus_one(self, tmp_path):
        """One past capacity: the oldest event (only) falls off, and the
        dump is still in record order across the wrap seam."""
        fr = FlightRecorder(capacity=8)
        for i in range(9):
            fr.record("tick", i=i)
        assert len(fr) == 8 and fr.recorded == 9 and fr.dropped == 1
        assert [e[2]["i"] for e in fr.snapshot()] == list(range(1, 9))
        doc = load_flight_dump(fr.dump(tmp_path / "wrap.json"))
        assert [e["detail"]["i"] for e in doc["events"]] == list(range(1, 9))
        assert doc["dropped"] == 1

    def test_wrap_ordering_many_times_around(self):
        """Timestamps and payloads stay monotone after many wraps."""
        fr = FlightRecorder(capacity=5)
        for i in range(23):
            fr.record("tick", i=i)
        snap = fr.snapshot()
        assert [e[2]["i"] for e in snap] == list(range(18, 23))
        ts = [e[0] for e in snap]
        assert ts == sorted(ts)

    def test_dump_roundtrip(self, tmp_path):
        fr = FlightRecorder(capacity=4)
        fr.record("a", x=1)
        fr.record("b")
        path = fr.dump(tmp_path / "f.json", reason="manual")
        doc = load_flight_dump(path)
        assert doc["reason"] == "manual"
        assert [e["kind"] for e in doc["events"]] == ["a", "b"]
        assert validate_flight_dump(doc) == []
        text = format_flight_dump(doc, last=1)
        assert "1 shown / 2 recorded" in text and "b" in text

    def test_load_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="not a flight dump"):
            load_flight_dump(p)

    def test_crash_dump_fires_once_per_arm(self, tmp_path):
        fr = FlightRecorder()
        fr.record("work")
        assert fr.maybe_crash_dump(RuntimeError("x")) is None  # unarmed
        fr.arm(tmp_path / "crash.json")
        first = fr.maybe_crash_dump(RuntimeError("boom"))
        assert first is not None
        assert fr.maybe_crash_dump(RuntimeError("again")) is None  # latched
        doc = load_flight_dump(first)
        assert doc["reason"].startswith("crash: RuntimeError")

    def test_disabled_recorder_is_free(self):
        """The disabled path is one attribute load and an empty call."""
        import time

        t0 = time.perf_counter()
        for _ in range(100_000):
            NULL_FLIGHT.record("x", a=1)
        assert time.perf_counter() - t0 < 1.0
        assert NULL_FLIGHT.recorded == 0 and len(NULL_FLIGHT) == 0
        assert NULL_FLIGHT.maybe_crash_dump(RuntimeError("x")) is None

    def test_driver_crash_writes_dump(self, tmp_path):
        p = clustered_clumps(300, seed=2)

        class Crashing(GravityDriver):
            def create_particles(self, config):
                return p

            def run_iteration(self, iteration):
                if iteration >= 1:
                    raise RuntimeError("injected")
                return super().run_iteration(iteration)

        driver = Crashing(Configuration(num_iterations=3), theta=0.7)
        telemetry = Telemetry()
        dump = tmp_path / "blackbox.json"
        telemetry.flight.arm(dump)
        with use_telemetry(telemetry):
            driver.enable_telemetry(telemetry)
            with pytest.raises(RuntimeError, match="injected"):
                driver.run()
        doc = load_flight_dump(dump)
        assert doc["reason"].startswith("crash: RuntimeError")
        kinds = {e["kind"] for e in doc["events"]}
        assert "span.open" in kinds and "span.close" in kinds


# ---------------------------------------------------------------------------
# Trace-context propagation + worker-clock spans (tentpole c, satellite 1)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _run_parallel_gravity(backend: str, n: int = 400):
    """One telemetry-enabled parallel gravity run per backend, shared by
    the nesting/latency/cache tests (read-only consumers)."""
    p = clustered_clumps(n, seed=11)

    class Main(GravityDriver):
        def create_particles(self, config):
            return p

    driver = Main(Configuration(num_iterations=1, bucket_size=16), theta=0.7)
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        driver.enable_telemetry(telemetry)
        driver.enable_parallel(backend, workers=2)
        try:
            driver.run()
            exec_backend = driver._exec_backend
        finally:
            driver.disable_parallel()
    return driver, telemetry, exec_backend


@pytest.mark.parametrize("backend", ["threads", "processes"])
class TestTraceContext:
    def test_tasks_nest_under_phase_span(self, backend):
        driver, telemetry, _ = _run_parallel_gravity(backend)
        doc = chrome_trace(telemetry)
        assert validate_chrome_trace(doc, require_exec_tasks=True) == []
        tasks = [e for e in doc["traceEvents"] if e.get("name") == "exec.task"]
        phases = {e["args"]["span_id"]: e for e in doc["traceEvents"]
                  if e.get("ph") == "X" and "span_id" in e.get("args", {})}
        assert tasks, "parallel run produced no exec.task spans"
        for t in tasks:
            parent = phases[t["args"]["phase_span"]]
            assert parent["name"] == "traversal"
            assert t["dur"] >= 0
        if backend == "processes":
            assert all("clock_offset" in t["args"] for t in tasks)

    def test_worker_latency_merges_into_registry(self, backend):
        driver, telemetry, exec_backend = _run_parallel_gravity(backend)
        inst = telemetry.metrics.latency("exec.task.latency", backend=backend)
        n_tasks = len(exec_backend.last_tasks)
        assert n_tasks > 0
        assert inst.count == n_tasks
        assert inst.quantile(0.5) > 0.0
        snap = inst.snapshot()
        assert snap["type"] == "latency" and snap["count"] == n_tasks


class TestExecCache:
    def test_process_worker_tree_cache_stats(self):
        driver, telemetry, backend = _run_parallel_gravity("processes")
        stats = backend.last_cache_stats
        assert stats is not None
        n_tasks = len(backend.last_tasks)
        # A fresh arena attaches once per worker; every later chunk hits.
        assert stats["attach_misses"] == 2
        assert stats["attach_hits"] == n_tasks - 2
        assert stats["hit_rate"] == pytest.approx((n_tasks - 2) / n_tasks)
        assert telemetry.metrics.total("exec.cache.attach_hits") == stats["attach_hits"]
        assert telemetry.metrics.total("exec.cache.attach_misses") == stats["attach_misses"]
        rep = driver.reports[-1].to_dict()
        assert rep["exec_cache"]["attach_hits"] == stats["attach_hits"]
        assert rep["exec_cache"]["hit_rate"] == pytest.approx(stats["hit_rate"])
        assert rep["latency"]["count"] == n_tasks


# ---------------------------------------------------------------------------
# SLO layer
# ---------------------------------------------------------------------------

class TestSLO:
    def test_parse_spec(self):
        spec = parse_slo_spec("lat<5ms,target=0.99,burn=1.5,window=0.25")
        assert spec.threshold == pytest.approx(5e-3)
        assert spec.target == 0.99
        assert spec.burn_limit == 1.5
        assert spec.window == 0.25

    @pytest.mark.parametrize("bad", [
        "", "lat<0ms", "lat>5ms", "5ms", "lat<5ms,target=2",
        "lat<5ms,frobnicate=1", "lat<5ms,target",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_slo_spec(bad)

    def test_burn_rate_violation(self):
        spec = parse_slo_spec("lat<5ms,target=0.99,burn=1.5")
        samples = [1e-3] * 90 + [10e-3] * 10
        report = evaluate_slo(spec, samples)
        assert report.violated
        long_w, short_w = report.windows
        # 10% bad against a 1% budget burns at 10x; the trailing quarter
        # is 40% bad -> 40x.
        assert long_w["burn_rate"] == pytest.approx(10.0)
        assert short_w["burn_rate"] == pytest.approx(40.0)
        assert "VIOLATED" in report.summary()
        assert validate_slo_report(report.to_dict()) == []

    def test_healthy_run_passes(self):
        spec = parse_slo_spec("lat<5ms,target=0.99")
        report = evaluate_slo(spec, [1e-3] * 100)
        assert not report.violated
        assert all(w["bad"] == 0 for w in report.windows)

    def test_short_window_catches_late_degradation(self):
        """A run that *became* slow violates even when the overall average
        is still inside budget."""
        spec = parse_slo_spec("lat<5ms,target=0.90,burn=1.0,window=0.1")
        samples = [1e-3] * 95 + [10e-3] * 5  # 5% bad overall, 50% bad lately
        report = evaluate_slo(spec, samples)
        long_w, short_w = report.windows
        assert not long_w["violated"]
        assert short_w["violated"] and report.violated

    def test_report_write_and_samples_from_reports(self, tmp_path):
        spec = parse_slo_spec("lat<1s")
        driver, _, _ = _run_parallel_gravity("threads")
        samples = samples_from_reports(driver.reports)
        assert len(samples) == len(driver.reports)
        report = evaluate_slo(spec, samples)
        path = report.write(tmp_path / "slo.json")
        doc = json.loads(path.read_text())
        assert validate_slo_report(doc) == []
        assert doc["n_samples"] == len(samples)

    def test_des_straggler_traffic_violates(self):
        """Acceptance: the same spec passes fault-free DES traffic and
        reports a burn-rate violation under injected stragglers."""
        from repro.bench import build_gravity_workload
        from repro.cache import CACHE_MODELS
        from repro.faults import parse_fault_spec
        from repro.runtime import MACHINES, simulate_traversal

        wl = build_gravity_workload(distribution="clustered", n=2000,
                                    n_partitions=256, n_subtrees=256,
                                    seed=7).workload
        kw = dict(machine=MACHINES["Stampede2"], n_processes=2,
                  workers_per_process=48, cache_model=CACHE_MODELS["WaitFree"],
                  collect_trace=True)
        spec = parse_slo_spec("lat<0.5ms,target=0.99,burn=1.0")

        clean = evaluate_slo(spec, samples_from_sim(simulate_traversal(wl, **kw)))
        slow = evaluate_slo(spec, samples_from_sim(simulate_traversal(
            wl, faults=parse_fault_spec("straggler=0.3x8,seed=3"), **kw)))
        assert not clean.violated
        assert slow.violated
        assert slow.quantiles["p99"] > clean.quantiles["p99"]


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

class TestValidators:
    def test_trace_validator_catches_structural_problems(self):
        assert validate_chrome_trace({"traceEvents": "nope"})
        bad_event = {"traceEvents": [
            {"ph": "X", "name": "a", "ts": 0.0, "pid": 1, "tid": 1},  # no dur
        ]}
        assert any("dur" in p for p in validate_chrome_trace(bad_event))

    def test_trace_validator_catches_orphan_task(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "traversal", "cat": "driver.phase",
             "ts": 0.0, "dur": 100.0, "pid": 1, "tid": 1,
             "args": {"span_id": 7}},
            {"ph": "X", "name": "exec.task", "cat": "exec",
             "ts": 50_000.0, "dur": 10.0, "pid": 1, "tid": 2,
             "args": {"phase_span": 7}},  # far outside the phase interval
        ]}
        assert any("exec.task" in p for p in
                   validate_chrome_trace(doc, require_exec_tasks=True))

    def test_trace_validator_requires_tasks_when_asked(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "traversal", "ts": 0.0, "dur": 1.0,
             "pid": 1, "tid": 1, "args": {"span_id": 1}},
        ]}
        assert validate_chrome_trace(doc) == []
        assert validate_chrome_trace(doc, require_exec_tasks=True)

    def test_flight_validator(self):
        assert validate_flight_dump({"schema": "wrong"})
        doc = {"schema": "repro.flight/1",
               "events": [{"t": 2.0, "kind": "a"}, {"t": 1.0, "kind": "b"}]}
        assert any("monotonic" in p for p in validate_flight_dump(doc))

    def test_slo_validator(self):
        assert validate_slo_report({"schema": "wrong"})


# ---------------------------------------------------------------------------
# Dashboard + status feed
# ---------------------------------------------------------------------------

class TestDashboard:
    SNAP = {
        "schema": STATUS_SCHEMA, "pipeline": "Toy", "iteration": 3,
        "backend": "threads", "workers": 2, "n_particles": 1000,
        "wall_time": 0.5, "throughput": 2000.0,
        "phases": {"tree_build": 0.1, "traversal": 0.4},
        "worker_lanes": [{"lane": 0, "busy": 0.2, "tasks": 3},
                         {"lane": 1, "busy": 0.1, "tasks": 2}],
        "cache": {"attach_hits": 3, "attach_misses": 1, "hit_rate": 0.75},
        "latency": {"p50": 0.001, "p99": 0.003},
    }

    def test_render_is_pure_and_complete(self):
        dash = Dashboard(use_ansi=False)
        text = dash.render(self.SNAP)
        assert text == dash.render(self.SNAP)
        assert "Toy iter 3" in text
        assert "traversal" in text and "80.0%" in text
        assert "lane   0" in text and "3 tasks" in text
        assert "hit rate  75.0%" in text and "3 hits / 1 misses" in text
        assert "p50=1.000ms" in text
        assert "\x1b" not in text

    def test_render_empty_latency_says_n0(self):
        """count=0 renders an explicit "n=0" line — never nan quantiles or
        fake zeros (satellite: empty-histogram surfacing)."""
        snap = dict(self.SNAP, latency={}, latency_count=0)
        text = Dashboard(use_ansi=False).render(snap)
        assert "task latency" in text and "n=0 (no task samples yet)" in text
        assert "nan" not in text
        # and a populated histogram advertises its sample count
        snap2 = dict(self.SNAP, latency_count=5)
        assert "n=5" in Dashboard(use_ansi=False).render(snap2)

    def test_ansi_update_clears_screen(self):
        import io

        buf = io.StringIO()
        dash = Dashboard(stream=buf, use_ansi=True)
        dash.update(self.SNAP)
        assert buf.getvalue().startswith("\x1b[2J\x1b[H")

    def test_status_writer_roundtrip(self, tmp_path):
        path = tmp_path / "status.jsonl"
        w = StatusWriter(path)
        assert path.exists()  # eager create, so a follower can tail
        w.update({"iteration": 0})
        w.update({"iteration": 1})
        snaps = read_status_file(path)
        assert [s["iteration"] for s in snaps] == [0, 1]
        assert all(s["schema"] == STATUS_SCHEMA for s in snaps)

    def test_read_skips_partial_line(self, tmp_path):
        path = tmp_path / "status.jsonl"
        path.write_text('{"iteration": 0}\n{"iter')
        assert len(read_status_file(path)) == 1

    def test_follow_yields_appended_snapshots(self, tmp_path):
        path = tmp_path / "status.jsonl"
        w = StatusWriter(path)
        w.update({"iteration": 0})

        def fake_sleep(_):
            # Append one snapshot per poll, then stop after three.
            if w.written < 3:
                w.update({"iteration": w.written})

        gen = follow_status_file(path, poll=0.0,
                                 stop=lambda: w.written >= 3,
                                 sleep=fake_sleep)
        seen = [s["iteration"] for s in gen]
        assert seen == [0, 1, 2]

    def test_follow_buffers_torn_tail_line(self, tmp_path):
        """A half-written JSONL tail (torn write) must not be parsed or
        crash the follower; it is buffered and yielded once the writer
        finishes the line (satellite: `repro top --follow` tail skip)."""
        path = tmp_path / "status.jsonl"
        whole = json.dumps({"iteration": 0}) + "\n"
        torn = json.dumps({"iteration": 1})
        path.write_text(whole + torn[:7])  # mid-record, no newline
        steps = iter([
            lambda: path.write_text(whole + torn + "\n"),  # complete it
            lambda: None,
        ])

        def fake_sleep(_):
            next(steps, lambda: None)()

        done = iter([False, False, False, True])
        gen = follow_status_file(path, poll=0.0, stop=lambda: next(done),
                                 sleep=fake_sleep)
        assert [s["iteration"] for s in gen] == [0, 1]

    def test_follow_skips_malformed_complete_line(self, tmp_path):
        path = tmp_path / "status.jsonl"
        path.write_text('{"iteration": 0}\nnot json at all\n'
                        '\xff\xfe garbage\n{"iteration": 2}\n')
        done = iter([False, True])
        gen = follow_status_file(path, poll=0.0, stop=lambda: next(done),
                                 sleep=lambda _: None)
        assert [s["iteration"] for s in gen] == [0, 2]

    def test_follow_restarts_after_truncation(self, tmp_path):
        """Writer restart (file truncated under the follower) resets the
        offset so new snapshots still arrive."""
        path = tmp_path / "status.jsonl"
        path.write_text('{"iteration": 7, "pipeline": "OldRun"}\n')
        steps = iter([
            lambda: path.write_text('{"iteration": 0}\n'),  # shorter file
            lambda: None,
        ])

        def fake_sleep(_):
            next(steps, lambda: None)()

        done = iter([False, False, False, True])
        gen = follow_status_file(path, poll=0.0, stop=lambda: next(done),
                                 sleep=fake_sleep)
        assert [s["iteration"] for s in gen] == [7, 0]

    def test_driver_feeds_dashboard_and_status(self, tmp_path):
        import io

        p = clustered_clumps(300, seed=4)

        class Main(GravityDriver):
            def create_particles(self, config):
                return p

        driver = Main(Configuration(num_iterations=2), theta=0.7)
        buf = io.StringIO()
        driver.observe(StatusFeed(Dashboard(stream=buf, use_ansi=False)))
        writer = driver.observe(StatusFeed(StatusWriter(tmp_path / "s.jsonl"))).consumer
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            driver.enable_telemetry(telemetry)
            driver.run()
        assert "repro top — Main" in buf.getvalue()
        assert "traversal" in buf.getvalue()
        snaps = read_status_file(writer.path)
        assert [s["iteration"] for s in snaps] == [0, 1]
        assert snaps[0]["phases"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCLIObs:
    def test_gravity_full_obs_run(self, capsys, tmp_path):
        flight = tmp_path / "flight.json"
        slo = tmp_path / "slo.json"
        status = tmp_path / "status.jsonl"
        trace = tmp_path / "trace.json"
        assert main([
            "gravity", "--n", "500", "--iterations", "2",
            "--slo", "lat<60s", "--slo-report", str(slo),
            "--flight", str(flight), "--status-file", str(status),
            "--trace", str(trace), "--backend", "threads", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO lat<60s: ok" in out
        assert "wrote flight recording" in out
        assert validate_chrome_trace(json.loads(trace.read_text()),
                                     require_exec_tasks=True) == []
        assert load_flight_dump(flight)["events"]
        assert validate_slo_report(json.loads(slo.read_text())) == []
        assert len(read_status_file(status)) == 2

        assert main(["obs", "dump", str(flight), "--last", "5"]) == 0
        assert "5 shown" in capsys.readouterr().out
        assert main(["obs", "validate", str(trace),
                     "--require-exec-tasks"]) == 0
        assert main(["obs", "validate", str(slo)]) == 0
        assert main(["top", str(status)]) == 0
        assert "repro top — GravityDriver iter 1" in capsys.readouterr().out

    def test_obs_validators_reject_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["obs", "dump", str(bad)]) == 2
        assert main(["obs", "validate", str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert main(["obs", "dump", str(missing)]) == 2
        assert main(["top", str(missing)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"traceEvents": [1]},
        {"schema": "repro.flight/1", "events": [1]},
        {"schema": "repro.slo/1", "n_samples": 1, "violated": False,
         "spec": {"threshold": 1.0, "target": 0.9, "burn_limit": 1.0, "window": 1.0},
         "windows": [1]},
        {"schema": "repro.attr/1", "n_nodes": 1,
         "arrays": {name: [0] for name in (*ARRAY_FIELDS, "mac_rejects", "cost_ns")}
         | {"visits": ["x"]},
         "totals": {"visits": 0}},
    ], ids=["not-an-object", "trace", "flight", "slo", "attr"])
    def test_malformed_document_is_one_problem(self, doc, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["obs", "validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("1 problem(s)"), out
        if isinstance(doc, dict) and doc.get("schema") == FLIGHT_SCHEMA:
            assert main(["obs", "dump", str(path)]) == 1
            assert capsys.readouterr().out.startswith("1 problem(s)")

    def test_scale_rejects_bad_spec_before_simulating(self, capsys):
        for bad in (["--faults", "foo=1"], ["--faults", "fail=1.0,retries=0"],
                    ["--slo", "garbage"]):
            assert main(["scale", "--n", "2000", "--cores", "96", *bad]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    def test_top_live_pipeline(self, capsys):
        assert main(["top", "gravity", "--n", "400", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top — GravityDriver") == 2
        assert "traversal" in out

    def test_scale_slo_exit_codes(self, capsys):
        argv = ["scale", "--n", "2000", "--cores", "96",
                "--slo", "lat<0.5ms,target=0.99,burn=1.0"]
        assert main(argv) == 0
        assert "SLO" in capsys.readouterr().out
        assert main(argv + ["--faults", "straggler=0.3x8,seed=3"]) == 1
        assert "VIOLATED" in capsys.readouterr().out
