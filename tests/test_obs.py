"""Unified telemetry layer: spans, metrics registry, exporters, wiring.

Covers the observability invariants the layer promises:

* span nesting and timing under a deterministic fake clock;
* metrics label aggregation (same ``(name, labels)`` -> same instrument);
* the Chrome trace-event golden schema (``ph``/``ts``/``dur``/``pid``/``tid``)
  with all seven driver phases nested inside the iteration span;
* telemetry-disabled driver runs producing byte-identical reports;
* the vectorised ``utilization_profile`` and ``leaf_partition`` matching
  their original loop implementations (kept here as references).
"""

import inspect
import json

import numpy as np
import pytest

from repro.apps.gravity import GravityDriver
from repro.cache import WAITFREE
from repro.core import Configuration
from repro.decomp import SfcDecomposer, decompose
from repro.obs import (
    NULL_FLIGHT,
    NULL_METRICS,
    NULL_TELEMETRY,
    NULL_TRACER,
    Counter,
    FlightRecorder,
    Gauge,
    Latency,
    MetricsRegistry,
    Telemetry,
    Tracer,
    chrome_trace,
    console_report,
    get_telemetry,
    metrics_dict,
    set_telemetry,
    traced,
    use_telemetry,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.particles import clustered_clumps
from repro.runtime import STAMPEDE2, simulate_traversal
from repro.runtime.tracing import ActivityTrace, utilization_profile
from repro.trees import build_tree


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class TestSpans:
    def test_nesting_depth_and_containment(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", cat="t"):
            with tracer.span("inner", cat="t"):
                pass
            with tracer.span("inner", cat="t"):
                pass
        outer = tracer.find("outer")[0]
        inners = tracer.find("inner")
        assert outer["args"]["depth"] == 0
        assert all(e["args"]["depth"] == 1 for e in inners)
        # children close before the parent and fit inside it in time
        for e in inners:
            assert e["ts"] >= outer["ts"]
            assert e["ts"] + e["dur"] <= outer["ts"] + outer["dur"]
        assert tracer.open_spans == 0

    def test_timing_from_clock(self):
        tracer = Tracer(clock=FakeClock(step=2.0))
        with tracer.span("a"):
            pass
        (event,) = tracer.events
        assert event["ts"] == pytest.approx(2.0 * 1e6)
        assert event["dur"] == pytest.approx(2.0 * 1e6)
        assert event["ph"] == "X"

    def test_missed_close_unwinds_stack(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        outer.__enter__()
        tracer.span("forgotten").__enter__()  # never closed explicitly
        outer.__exit__(None, None, None)
        assert tracer.open_spans == 0

    def test_complete_and_activity_trace(self):
        tracer = Tracer()
        tracer.complete("task", 1.0, 3.0, pid=2, tid=5)
        with pytest.raises(ValueError):
            tracer.complete("bad", 3.0, 1.0)
        trace = ActivityTrace()
        trace.record(1, 4, 0.0, 2.0, "local_traversal")
        assert tracer.record_activity_trace(trace, pid_offset=10) == 1
        des = tracer.events[-1]
        assert (des["pid"], des["tid"], des["name"]) == (11, 4, "local_traversal")
        assert des["dur"] == pytest.approx(2e6)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", whatever=1):
            pass
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.record_activity_trace(ActivityTrace()) == 0
        assert not NULL_TRACER.enabled


def _public(cls):
    return [name for name in dir(cls) if not name.startswith("_") or name == "__len__"]


class TestDisabledTwins:
    """Telemetry off is derived from the live classes: every public name of
    a live class exists on its disabled twin, and calling it does not raise."""

    @pytest.mark.parametrize("twin, live", [
        (NULL_TRACER, (Tracer,)),
        (NULL_METRICS, (MetricsRegistry,)),
        (NULL_FLIGHT, (FlightRecorder,)),
        (NULL_METRICS.counter("c"), (Counter, Gauge, Latency)),
    ], ids=["tracer", "metrics", "flight", "instrument"])
    def test_twin_has_every_live_name(self, twin, live):
        for cls in live:
            for name in _public(cls):
                assert hasattr(twin, name), f"{cls.__name__}.{name}"
                member = inspect.getattr_static(cls, name)
                if inspect.isfunction(member):
                    params = list(inspect.signature(member).parameters.values())[1:]
                    args = [None for p in params if p.default is p.empty
                            and p.kind is p.POSITIONAL_OR_KEYWORD]
                    getattr(twin, name)(*args)

    def test_documented_returns(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.gauge("b") \
            is NULL_METRICS.latency("c")
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", cat="x")
        assert NULL_METRICS.collect() == [] and NULL_TRACER.find("x") == []
        assert NULL_TRACER.find("x") is not NULL_TRACER.find("x")
        assert NULL_METRICS.total("x") == 0.0 and len(NULL_METRICS) == 0
        assert NULL_METRICS.counter("a").quantile(0.5) == 0.0
        assert NULL_FLIGHT.dropped == 0 and NULL_TRACER.open_spans == 0
        assert NULL_METRICS.value("x") is None

    def test_new_live_member_needs_no_twin(self):
        from repro.obs.flight import null_twin

        class Live:
            __slots__ = ("events", "clock")
            enabled = True

            def record_thing(self, x):
                return 1

            def snapshot(self):
                return [1]

            def other(self):
                return 2

            @property
            def dropped(self):
                return 3

        twin = null_twin(Live)
        assert (twin.enabled, twin.events, twin.clock, twin.record_thing(1),
                twin.snapshot(), twin.other(), twin.dropped) == \
            (False, (), None, 0, [], None, 0)
        with pytest.raises(AttributeError):
            twin.extra = 1  # shared and stateless


class TestMetrics:
    def test_same_name_and_labels_share_instrument(self):
        reg = MetricsRegistry()
        reg.counter("hits", model="WaitFree", level="L1").inc(3)
        # label order must not matter
        reg.counter("hits", level="L1", model="WaitFree").inc(2)
        reg.counter("hits", model="XWrite", level="L1").inc(10)
        assert reg.value("hits", model="WaitFree", level="L1") == 5
        assert reg.total("hits") == 15
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_collect_is_stable_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", z="1").inc()
        names = [s["name"] for s in reg.collect()]
        assert names == sorted(names)


class TestTelemetryGlobal:
    def test_default_is_disabled(self):
        assert get_telemetry() is NULL_TELEMETRY
        assert not get_telemetry().enabled

    def test_use_telemetry_restores(self):
        t = Telemetry()
        with use_telemetry(t):
            assert get_telemetry() is t
        assert get_telemetry() is NULL_TELEMETRY

    def test_set_telemetry_none_disables(self):
        prev = set_telemetry(Telemetry())
        assert prev is NULL_TELEMETRY
        set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY

    def test_traced_decorator(self):
        @traced("my_fn", cat="test")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # disabled: plain call
        t = Telemetry()
        with use_telemetry(t):
            assert fn(2) == 3
        assert len(t.tracer.find("my_fn")) == 1


def _run_gravity(telemetry=None, n=600):
    class Main(GravityDriver):
        def create_particles(self, config):
            return clustered_clumps(n, seed=13)

    d = Main(
        Configuration(num_iterations=2, num_partitions=8, num_subtrees=8),
        theta=0.7,
        softening=1e-3,
    )
    if telemetry is not None:
        d.enable_telemetry(telemetry)
    try:
        return d.run()
    finally:
        set_telemetry(None)


PHASES = [
    "splitters", "tree_build", "leaf_sharing", "prepare",
    "traversal", "post_traversal", "rebalance",
]


class TestDriverTelemetry:
    @pytest.fixture(scope="class")
    def telemetry(self):
        t = Telemetry()
        _run_gravity(t)
        return t

    def test_chrome_trace_golden_schema(self, telemetry, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(telemetry, str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == n > 0
        for e in events:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["ph"] == "X"
            assert e["dur"] >= 0

    def test_all_phases_nested_in_iteration(self, telemetry):
        iterations = telemetry.tracer.find("iteration")
        assert len(iterations) == 2
        for it in iterations:
            t0, t1 = it["ts"], it["ts"] + it["dur"]
            for phase in PHASES:
                inside = [
                    e for e in telemetry.tracer.find(phase)
                    if t0 <= e["ts"] and e["ts"] + e["dur"] <= t1
                ]
                assert inside, f"phase {phase} not nested in iteration"
                assert all(e["args"]["depth"] >= 1 for e in inside)

    def test_metrics_capture_paper_quantities(self, telemetry):
        reg = telemetry.metrics
        assert reg.total("cache.hits") >= 0
        assert reg.total("cache.misses") > 0
        assert reg.total("cache.requests") > 0
        assert reg.total("traversal.pn_interactions") > 0
        assert reg.value("driver.imbalance", iteration="0") >= 1.0
        assert reg.total("driver.iterations") == 2

    def test_metrics_exports(self, telemetry, tmp_path):
        jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
        n_json = write_metrics_json(telemetry, str(jpath))
        n_csv = write_metrics_csv(telemetry, str(cpath))
        doc = json.loads(jpath.read_text())
        assert len(doc["metrics"]) == n_json == n_csv
        header, *rows = cpath.read_text().strip().splitlines()
        assert header == "name,type,labels,value,extra"
        assert len(rows) == n_csv
        assert metrics_dict(telemetry)["metrics"] == doc["metrics"]

    def test_console_report(self, telemetry):
        text = console_report(telemetry)
        assert "tree_build" in text
        assert "cache.misses" in text

    def test_disabled_run_identical_to_seed(self):
        """Telemetry must be observational: reports match byte for byte
        (modulo the timing metadata — wall_time is real-clock noise and
        latency is only recorded when telemetry is on)."""
        plain = _run_gravity(telemetry=None)
        traced_reports = _run_gravity(Telemetry())
        assert len(plain) == len(traced_reports)

        def comparable(report):
            d = report.to_dict()
            d.pop("wall_time")
            d.pop("latency")
            return json.dumps(d, sort_keys=True)

        for a, b in zip(plain, traced_reports):
            assert comparable(a) == comparable(b)

    def test_report_to_dict_json_serializable(self):
        report = _run_gravity(telemetry=None, n=300)[0]
        d = report.to_dict()
        rt = json.loads(json.dumps(d))
        assert rt["iteration"] == 0
        assert rt["stats"]["pp_interactions"] > 0
        assert isinstance(rt["partition_loads"], list)


class TestDesTelemetry:
    def test_des_exports_timeline_and_counters(self):
        from repro.bench import build_gravity_workload

        workload = build_gravity_workload(
            distribution="clustered", n=2000, n_partitions=32, n_subtrees=32
        ).workload
        t = Telemetry()
        with use_telemetry(t):
            result = simulate_traversal(
                workload, machine=STAMPEDE2, n_processes=4,
                workers_per_process=4, cache_model=WAITFREE,
            )
        des_events = [e for e in t.tracer.events if e["cat"] == "des"]
        assert len(des_events) == len(result.trace.intervals) > 0
        assert t.metrics.total("des.events") > 0
        assert t.metrics.value("des.sim_time", model="WaitFree") == pytest.approx(
            result.time
        )
        assert len(t.tracer.find("des.run")) == 1
        # timeline events carry simulated (process, worker) lanes
        assert {e["pid"] for e in des_events} <= set(range(4))


def _reference_utilization_profile(trace, n_workers_total, n_bins=50):
    """The seed's per-interval loop, kept verbatim as the oracle."""
    t0, t1 = trace.span()
    if t1 <= t0:
        return np.zeros(n_bins + 1), {}
    edges = np.linspace(t0, t1, n_bins + 1)
    width = edges[1] - edges[0]
    out = {}
    for _, _, start, end, label in trace.intervals:
        series = out.setdefault(label, np.zeros(n_bins))
        first = int(np.clip((start - t0) // width, 0, n_bins - 1))
        last = int(np.clip((end - t0) // width, 0, n_bins - 1))
        for b in range(first, last + 1):
            lo = max(start, edges[b])
            hi = min(end, edges[b + 1])
            if hi > lo:
                series[b] += hi - lo
    denom = width * n_workers_total
    for label in out:
        out[label] = out[label] / denom
    return edges, out


class TestVectorizedProfiles:
    def test_utilization_profile_matches_reference(self):
        rng = np.random.default_rng(11)
        trace = ActivityTrace()
        labels = ["local_traversal", "cache_request", "resume"]
        for _ in range(400):
            start = rng.uniform(0, 10)
            trace.record(
                int(rng.integers(4)), int(rng.integers(8)),
                start, start + rng.uniform(0, 0.5),
                labels[int(rng.integers(3))],
            )
        edges, got = utilization_profile(trace, n_workers_total=32, n_bins=37)
        ref_edges, ref = _reference_utilization_profile(trace, 32, n_bins=37)
        assert np.allclose(edges, ref_edges)
        assert set(got) == set(ref)
        for label in ref:
            assert np.allclose(got[label], ref[label])

    def test_utilization_profile_empty(self):
        edges, out = utilization_profile(ActivityTrace(), 4, n_bins=10)
        assert out == {}
        assert len(edges) == 11

    def test_leaf_partition_matches_unique_reference(self):
        p = clustered_clumps(2500, seed=29)
        tree = build_tree(p, tree_type="oct", bucket_size=16)
        parts = SfcDecomposer().assign(tree.particles, 17)
        dec = decompose(tree, parts, n_subtrees=16)

        got = dec.leaf_partition()

        ref = np.zeros(tree.n_nodes, dtype=np.int64)
        pp = dec.particle_partition
        for leaf in tree.leaf_indices:
            s, e = int(tree.pstart[leaf]), int(tree.pend[leaf])
            vals, cnt = np.unique(pp[s:e], return_counts=True)
            ref[leaf] = vals[np.argmax(cnt)]
        assert np.array_equal(got, ref)


class TestChromeTraceEdgeCases:
    """Export corner cases: empty sessions, zero-width spans, metrics-only."""

    def test_empty_trace_exports_valid_document(self, tmp_path):
        telemetry = Telemetry()
        doc = chrome_trace(telemetry)
        assert doc["traceEvents"] == []
        assert doc["displayTimeUnit"] == "ms"
        path = tmp_path / "empty.json"
        assert write_chrome_trace(telemetry, str(path)) == 0
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_identical_timestamps_zero_duration(self, tmp_path):
        tracer = Tracer(clock=lambda: 7.0)  # frozen clock
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.complete("c", 7.0, 7.0)
        doc = chrome_trace(tracer)
        assert len(doc["traceEvents"]) == 3
        for e in doc["traceEvents"]:
            assert e["ph"] == "X"
            assert e["ts"] == pytest.approx(7.0 * 1e6)
            assert e["dur"] == 0.0
        # still serializable and round-trippable
        path = tmp_path / "zero.json"
        telemetry = Telemetry()
        telemetry.tracer = tracer
        write_chrome_trace(telemetry, str(path))
        assert len(json.loads(path.read_text())["traceEvents"]) == 3

    def test_metrics_only_export(self, tmp_path):
        telemetry = Telemetry()
        telemetry.metrics.counter("jobs").inc(3)
        telemetry.metrics.gauge("depth").set(11.0)
        # no spans at all: trace export is empty but valid...
        assert chrome_trace(telemetry)["traceEvents"] == []
        # ...while every metrics exporter still carries the data.
        assert len(metrics_dict(telemetry)["metrics"]) == 2
        jpath = tmp_path / "m.json"
        cpath = tmp_path / "m.csv"
        assert write_metrics_json(telemetry, str(jpath)) == 2
        assert write_metrics_csv(telemetry, str(cpath)) == 2
        names = {m["name"] for m in json.loads(jpath.read_text())["metrics"]}
        assert names == {"jobs", "depth"}
        report = console_report(telemetry)
        assert "jobs" in report and "spans" not in report

    def test_critical_path_lane_named_in_metadata(self):
        from repro.perf import CPRecorder, analyze_critical_path

        rec = CPRecorder()
        a = rec.add("work", "compute", 0.0, 1.0)
        rec.add("send", "latency", 1.0, 1.5, preds=(a,))
        report = analyze_critical_path(rec)
        tracer = Tracer()
        assert tracer.record_critical_path(report) == len(report.segments)
        doc = chrome_trace(tracer)
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        assert meta and meta[0]["args"]["name"] == "⚑ critical path"
        assert meta[0]["pid"] == -1
        lanes = [e for e in doc["traceEvents"]
                 if e.get("cat") == "critical-path"]
        assert [e["name"] for e in lanes] == ["work", "send"]
