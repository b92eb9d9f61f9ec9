"""Fault injection, retry/timeout semantics, and graceful degradation.

The contract under test has three layers:

* the **plan/injector** layer is deterministic: one seed, one decision
  sequence, with zero-probability classes never touching their streams;
* the **DES runtime** recovers from injected faults — dropped or duplicated
  messages, transient fill failures, stragglers, crash-with-restart — and a
  run with an armed-but-silent injector is bit-identical to one with no
  injector at all;
* when recovery is impossible the runtime surfaces a structured
  :class:`IterationFailure` instead of hanging, and the Driver degrades
  gracefully (real physics results are never perturbed).
"""

import numpy as np
import pytest

from repro.bench.workloads import build_gravity_workload
from repro.core.observers import CommReplay
from repro.cache.models import (
    PER_THREAD,
    RetryPolicy,
    SEQUENTIAL,
    SINGLE_WRITER,
    WAITFREE,
    XWRITE,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    IterationFailure,
    NO_FAULTS,
    as_injector,
    parse_fault_spec,
)
from repro.runtime import simulate_traversal
from repro.runtime.machine import SUMMIT


@pytest.fixture(scope="module")
def workload():
    return build_gravity_workload(
        n=2000, n_partitions=64, n_subtrees=64, seed=1
    ).workload


class TestFaultPlan:
    def test_default_plan_is_no_faults(self):
        assert not FaultPlan().any_faults
        assert not NO_FAULTS.any_faults
        assert FaultPlan(drop=0.1).any_faults

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(jitter=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)

    def test_parse_full_spec(self):
        plan = parse_fault_spec(
            "drop=0.05,dup=0.01,jitter=0.3,fail=0.1,straggler=0.25x8,"
            "crash=0.5@0.4,seed=42,retries=9,timeout=40,backoff=3"
        )
        assert plan.drop == 0.05
        assert plan.duplicate == 0.01
        assert plan.jitter == 0.3
        assert plan.fill_failure == 0.1
        assert plan.straggler_fraction == 0.25
        assert plan.straggler_slowdown == 8
        assert plan.crash == 0.5
        assert plan.crash_restart == 0.4
        assert plan.seed == 42
        assert plan.retry == RetryPolicy(max_attempts=9, timeout_factor=40, backoff=3)

    def test_describe_round_trips(self):
        plan = parse_fault_spec("drop=0.05,fail=0.1,straggler=0.2x4,crash=0.3,seed=7")
        assert parse_fault_spec(plan.describe()) == plan

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_fault_spec("drop=2")
        with pytest.raises(ValueError):
            parse_fault_spec("bogus=1")
        with pytest.raises(ValueError):
            parse_fault_spec("drop")
        with pytest.raises(ValueError):
            parse_fault_spec("drop=abc")

    def test_retry_policy_backoff(self):
        policy = RetryPolicy(max_attempts=4, timeout_factor=10.0, backoff=2.0)
        rtt = 1e-6
        windows = [policy.timeout_for(a, rtt) for a in range(3)]
        assert windows == pytest.approx([1e-5, 2e-5, 4e-5])
        assert windows[1] / windows[0] == windows[2] / windows[1] == 2.0


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=3, drop=0.3, duplicate=0.2, jitter=0.5, fill_failure=0.4)
        a, b = FaultInjector(plan), FaultInjector(plan)
        seq_a = [(a.drop_message(), a.duplicate_message(), a.jittered(1.0), a.fill_fails())
                 for _ in range(200)]
        seq_b = [(b.drop_message(), b.duplicate_message(), b.jittered(1.0), b.fill_fails())
                 for _ in range(200)]
        assert seq_a == seq_b
        assert a.counters.to_dict() == b.counters.to_dict()

    def test_zero_probability_streams_untouched(self):
        """Enabling one class must not perturb another: drops with and
        without an (unused) duplicate stream are identical."""
        only_drop = FaultInjector(FaultPlan(seed=5, drop=0.3))
        drop_and_dup = FaultInjector(FaultPlan(seed=5, drop=0.3, duplicate=0.0))
        seq = []
        for _ in range(100):
            drop_and_dup.duplicate_message()  # zero-probability: no stream use
            seq.append(drop_and_dup.drop_message())
        assert seq == [only_drop.drop_message() for _ in range(100)]

    def test_straggler_and_crash_draws(self):
        inj = FaultInjector(FaultPlan(seed=1, straggler_fraction=0.5,
                                      straggler_slowdown=6.0, crash=0.5,
                                      crash_restart=0.3))
        factors = inj.straggler_factors(32)
        assert set(factors) <= {1.0, 6.0}
        assert inj.counters.stragglers == factors.count(6.0) > 0
        events = inj.crash_events(32)
        assert events, "with p=0.5 over 32 processes some crash is expected"
        for ev in events:
            assert 0.05 <= ev.at_fraction <= 0.95
            assert ev.restart_fraction == 0.3

    def test_as_injector_coercions(self):
        assert as_injector(None) is None
        inj = as_injector(NO_FAULTS)
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj


class TestZeroPlanIdentity:
    """An armed injector that never fires must be invisible: same simulated
    time, same event count, same communication totals as no injector."""

    @pytest.mark.parametrize(
        "model", [WAITFREE, XWRITE, SEQUENTIAL, PER_THREAD, SINGLE_WRITER],
        ids=lambda m: m.name,
    )
    def test_bit_identical_to_baseline(self, workload, model):
        base = simulate_traversal(workload, SUMMIT, n_processes=8, cache_model=model)
        armed = simulate_traversal(workload, SUMMIT, n_processes=8,
                                   cache_model=model, faults=FaultPlan(seed=7))
        assert armed.time == base.time
        assert armed.events == base.events
        assert armed.requests == base.requests
        assert armed.duplicate_requests == base.duplicate_requests
        assert armed.bytes_moved == base.bytes_moved
        assert armed.faults is not None
        assert all(v == 0 for v in armed.faults.to_dict().values())

    def test_drop_zero_equals_baseline_with_other_faults_off(self, workload):
        """drop=0 with every other class off: the drop stream is never
        consulted, so results match the no-injector run exactly."""
        base = simulate_traversal(workload, SUMMIT, n_processes=8)
        r = simulate_traversal(workload, SUMMIT, n_processes=8,
                               faults=parse_fault_spec("drop=0,seed=9"))
        assert r.time == base.time and r.events == base.events


class TestFaultedRuns:
    def test_same_plan_bit_identical(self, workload):
        plan = parse_fault_spec("drop=0.05,dup=0.02,jitter=0.2,fail=0.1,seed=3")
        a = simulate_traversal(workload, SUMMIT, n_processes=8, faults=plan)
        b = simulate_traversal(workload, SUMMIT, n_processes=8, faults=plan)
        assert a.time == b.time
        assert a.events == b.events
        assert a.faults.to_dict() == b.faults.to_dict()
        assert a.faults.drops > 0 and a.faults.retries > 0

    def test_acceptance_plan_completes_with_default_retry(self, workload):
        """The headline robustness claim: 5% drops plus transient fill
        failures complete a full iteration with the default retry policy —
        recovery, not deadlock, not failure."""
        for seed in range(5):
            plan = parse_fault_spec(f"drop=0.05,fail=0.1,seed={seed}")
            r = simulate_traversal(workload, SUMMIT, n_processes=8, faults=plan)
            counters = r.faults.to_dict()
            assert counters["drops"] > 0
            assert counters["retries"] > 0
            assert counters["timeouts"] > 0

    def test_retry_exhaustion_raises_structured_failure(self, workload):
        plan = FaultPlan(seed=0, drop=0.95,
                         retry=RetryPolicy(max_attempts=2, timeout_factor=25.0))
        with pytest.raises(IterationFailure) as info:
            simulate_traversal(workload, SUMMIT, n_processes=8, faults=plan)
        exc = info.value
        assert exc.attempts == 2
        assert exc.process >= 0 and exc.group >= 0
        assert exc.sim_time > 0
        assert exc.counters.drops > 0
        d = exc.to_dict()
        assert d["reason"].startswith("retries exhausted")
        assert d["counters"]["drops"] == exc.counters.drops

    def test_straggler_slows_the_run(self, workload):
        base = simulate_traversal(workload, SUMMIT, n_processes=8)
        slow = simulate_traversal(
            workload, SUMMIT, n_processes=8,
            faults=FaultPlan(seed=2, straggler_fraction=0.5,
                             straggler_slowdown=8.0),
        )
        assert slow.faults.stragglers > 0
        assert slow.time > base.time

    def test_crash_restart_completes(self, workload):
        plan = parse_fault_spec("crash=0.5@0.25,seed=4")
        r = simulate_traversal(workload, SUMMIT, n_processes=8, faults=plan)
        assert r.faults.crash_restarts > 0

    def test_duplicates_are_harmless(self, workload):
        r = simulate_traversal(workload, SUMMIT, n_processes=8,
                               faults=parse_fault_spec("dup=0.3,seed=6"))
        assert r.faults.duplicates > 0
        base = simulate_traversal(workload, SUMMIT, n_processes=8)
        assert r.requests == base.requests  # dedupe still holds

    def test_fault_counters_in_sim_result_dict(self, workload):
        r = simulate_traversal(workload, SUMMIT, n_processes=8,
                               faults=parse_fault_spec("drop=0.05,seed=1"))
        d = r.to_dict()
        assert d["faults"]["drops"] == r.faults.drops

    def test_telemetry_gets_fault_counters_and_retry_spans(self, workload):
        from repro.obs import Telemetry

        tel = Telemetry()
        r = simulate_traversal(workload, SUMMIT, n_processes=8,
                               faults=parse_fault_spec("drop=0.05,fail=0.1,seed=0"),
                               telemetry=tel)
        assert tel.metrics.total("faults.drops") == r.faults.drops
        assert tel.metrics.total("faults.retries") == r.faults.retries
        retry_spans = tel.tracer.find("faults.retry")
        assert len(retry_spans) == r.faults.retries
        for s in retry_spans:
            assert s["dur"] >= 0


class TestDriverDegradation:
    def _run_driver(self, fault_plan=None, telemetry=None):
        from repro.apps.gravity import GravityDriver
        from repro.core import Configuration
        from repro.particles import clustered_clumps

        p = clustered_clumps(1200, seed=11)

        class Main(GravityDriver):
            def create_particles(self, config):
                return p

        cfg = Configuration(num_iterations=1, num_partitions=8, num_subtrees=8)
        driver = Main(cfg, theta=0.7)
        if telemetry is not None:
            driver.enable_telemetry(telemetry)
        if fault_plan is not None:
            driver.observe(CommReplay(fault_plan))
        try:
            driver.run()
        finally:
            from repro.obs import set_telemetry
            set_telemetry(None)
        return driver

    def test_faults_do_not_perturb_physics(self):
        """ISSUE acceptance: a faulted gravity iteration completes and its
        accelerations are identical to the fault-free run — faults degrade
        the simulated schedule, never the real traversal."""
        clean = self._run_driver()
        faulted = self._run_driver("drop=0.05,fail=0.1,seed=3")
        np.testing.assert_array_equal(clean.accelerations, faulted.accelerations)
        report = faulted.reports[0]
        assert report.comm_sim is not None
        assert report.comm_sim["failed"] is False
        counters = report.comm_sim["faults"]
        assert counters["drops"] > 0 and counters["retries"] > 0
        assert clean.reports[0].comm_sim is None

    def test_driver_survives_retry_exhaustion(self):
        plan = FaultPlan(seed=0, drop=0.95,
                         retry=RetryPolicy(max_attempts=2))
        driver = self._run_driver(plan)
        report = driver.reports[0]
        assert report.comm_sim["failed"] is True
        assert report.comm_sim["reason"].startswith("retries exhausted")
        assert driver.accelerations is not None  # physics still delivered

    def test_driver_fault_metrics_flow_to_telemetry(self):
        from repro.obs import Telemetry

        tel = Telemetry()
        driver = self._run_driver("drop=0.05,fail=0.1,seed=3", telemetry=tel)
        counters = driver.reports[0].comm_sim["faults"]
        assert tel.metrics.total("faults.drops") == counters["drops"]

    def test_enable_faults_accepts_spec_string(self):
        driver = self._run_driver("drop=0,seed=1")
        assert isinstance(driver.fault_plan, FaultPlan)
        assert driver.reports[0].comm_sim is not None

    def test_report_to_dict_includes_comm_sim(self):
        driver = self._run_driver("drop=0.05,seed=2")
        d = driver.reports[0].to_dict()
        assert d["comm_sim"]["faults"]["drops"] >= 0


class TestCrashRecoverySemantics:
    """PR 4: crashes lose real state and recovery has a visible cost."""

    def _crash_run(self, workload, spec="crash=0.9@0.25,seed=4", telemetry=None):
        return simulate_traversal(workload, SUMMIT, n_processes=8,
                                  faults=parse_fault_spec(spec),
                                  telemetry=telemetry)

    def test_crash_loses_state_and_reports_recovery(self, workload):
        r = self._crash_run(workload)
        rec = r.recovery
        assert rec is not None
        assert rec.n_crashes == r.faults.crash_restarts > 0
        assert rec.lost_cache_lines > 0
        assert rec.lost_bytes > 0
        assert rec.recovery_time > 0
        for ev in rec.events:
            assert ev.buddy == (ev.process + 1) % 8
            assert ev.checkpoint_bytes > 0
        assert any(ev.recovered_at is not None for ev in rec.events)
        # Buddy fetches are real traffic on the simulated network.
        assert rec.bytes_refetched > 0

    def test_crash_recovery_in_result_dict(self, workload):
        d = self._crash_run(workload).to_dict()
        assert d["recovery"]["n_crashes"] > 0
        assert d["recovery"]["events"][0]["lost_cache_lines"] >= 0

    def test_same_seed_same_crash_bit_identical(self, workload):
        """ISSUE acceptance: same seed + same crash spec => bit-identical
        SimResult, recovery accounting included."""
        a = self._crash_run(workload)
        b = self._crash_run(workload)
        assert a.time == b.time
        assert a.events == b.events
        assert a.bytes_moved == b.bytes_moved
        assert a.faults.to_dict() == b.faults.to_dict()
        assert a.recovery.to_dict() == b.recovery.to_dict()

    def test_distinct_crash_seeds_distinct_crash_times(self, workload):
        """ISSUE acceptance: two crash-fault streams seeded differently
        crash at different simulated times."""
        a = self._crash_run(workload, "crash=0.9@0.25,seed=4")
        b = self._crash_run(workload, "crash=0.9@0.25,seed=5")
        times_a = [ev.crashed_at for ev in a.recovery.events]
        times_b = [ev.crashed_at for ev in b.recovery.events]
        assert times_a != times_b

    def test_crash_costs_simulated_time(self, workload):
        base = simulate_traversal(workload, SUMMIT, n_processes=8)
        crashed = self._crash_run(workload)
        assert crashed.time > base.time

    def test_no_crash_no_recovery_report(self, workload):
        r = simulate_traversal(workload, SUMMIT, n_processes=8,
                               faults=parse_fault_spec("drop=0.05,seed=1"))
        assert r.recovery is None
        assert "recovery" not in r.to_dict()

    def test_recovery_flows_to_telemetry(self, workload):
        from repro.obs import Telemetry

        tel = Telemetry()
        r = self._crash_run(workload, telemetry=tel)
        rec = r.recovery
        assert tel.metrics.total("recovery.crashes") == rec.n_crashes
        assert tel.metrics.total("recovery.lost_bytes") == rec.lost_bytes
        assert tel.metrics.total("recovery.bytes_refetched") == rec.bytes_refetched
        restart_spans = [e for e in tel.tracer.events
                         if e.get("cat") == "recovery"
                         and e["name"].startswith("restart")]
        fetch_spans = [e for e in tel.tracer.events
                       if e.get("cat") == "recovery"
                       and e["name"].startswith("checkpoint fetch")]
        assert len(restart_spans) == rec.n_crashes
        assert fetch_spans, "buddy fetch should occupy the recovery lane"
        from repro.obs import chrome_trace

        doc = chrome_trace(tel)
        lane_names = [e["args"]["name"] for e in doc["traceEvents"]
                      if e.get("ph") == "M"]
        assert "⟲ recovery" in lane_names

    def test_single_process_reloads_locally(self, workload):
        r = simulate_traversal(workload, SUMMIT, n_processes=1,
                               faults=parse_fault_spec("crash=0.9@0.25,seed=4"))
        rec = r.recovery
        assert rec is not None and rec.n_crashes > 0
        assert all(ev.buddy is None for ev in rec.events)
        assert rec.bytes_refetched == 0.0
