"""The distributed-traversal DES: one iteration on P simulated processes.

Per process the model runs the event sequence of paper Fig 2 / Fig 9:

* every bucket starts as a **local traversal** task (its work on the shared
  branch, on subtrees homed on its process, and on groups already cached);
* when a bucket's local task starts, it issues **cache requests** for every
  remote fetch group it will need (first-toucher only, per the cache
  model's dedupe rule);
* a request travels to the home process (latency), the response is
  serialized through the home's injection-bandwidth pipe, travels back
  (latency), and becomes a **cache insertion** whose execution depends on
  the model — any worker (WaitFree, least-busy dispatch), a process-wide
  mutex (XWrite), or the single designated writer thread (Sequential);
* once inserted, all bucket shares waiting on that group are released as
  **traversal resumption** tasks.

The simulated wall-clock of the slowest process is the iteration time.

When a :class:`~repro.faults.FaultPlan` is supplied, the same lifecycle
runs under injected faults — message drop/duplication, latency jitter,
transient fill failures, straggler processes, crash-with-restart — and the
runtime's recovery semantics engage: every outstanding request carries a
cancellable timeout timer with exponential-backoff resends, and a request
that exhausts its attempts raises a structured
:class:`~repro.faults.IterationFailure` instead of parking its waiters
forever.  Faults affect timing and communication only, never the physics
(the workload's interaction work is fixed before simulation starts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cache.models import CacheModel, RetryPolicy, WAITFREE
from ..faults import FaultCounters, FaultInjector, FaultPlan, IterationFailure, as_injector
from ..obs import Telemetry, get_telemetry
from ..perf.critical_path import CPRecorder, CriticalPathReport, analyze_critical_path
from ..resilience.recovery import CrashRecovery, RecoveryReport
from .des import FifoResource, Simulator, WorkerPool
from .machine import MachineSpec, STAMPEDE2
from .tracing import ActivityTrace, activity_totals, barrier_waits
from .workload import CostModel, WorkloadSpec

__all__ = ["SimResult", "TraversalSim", "simulate_traversal"]


@dataclass
class SimResult:
    """Outcome of one simulated iteration."""

    time: float
    n_processes: int
    workers_per_process: int
    cache_model: str
    requests: int
    duplicate_requests: int
    bytes_moved: float
    activity: dict[str, float]
    trace: ActivityTrace | None = None
    events: int = 0
    #: injected-fault and recovery counters (None when no injector ran)
    faults: FaultCounters | None = None
    #: critical-path attribution (None unless ``critical_path=True``)
    critical_path: CriticalPathReport | None = None
    #: per-crash recovery accounting (None unless a crash actually fired)
    recovery: RecoveryReport | None = None
    #: the raw recorded event graph (None unless ``critical_path=True``);
    #: not serialized — the what-if engine replays it with virtual
    #: speedups (``repro explain``)
    cp_graph: CPRecorder | None = None

    @property
    def total_cores(self) -> int:
        return self.n_processes * self.workers_per_process

    @property
    def efficiency_denominator(self) -> float:
        busy = sum(self.activity.values())
        span = self.time * self.total_cores
        return busy / span if span > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (trace omitted)."""
        out = {
            "time": self.time,
            "n_processes": self.n_processes,
            "workers_per_process": self.workers_per_process,
            "cache_model": self.cache_model,
            "requests": self.requests,
            "duplicate_requests": self.duplicate_requests,
            "bytes_moved": self.bytes_moved,
            "events": self.events,
            "activity": {k: float(v) for k, v in self.activity.items()},
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        if self.critical_path is not None:
            out["critical_path"] = self.critical_path.to_dict()
        if self.recovery is not None:
            out["recovery"] = self.recovery.to_dict()
        return out


@dataclass
class _GroupState:
    """Per (process, cache-key) fetch lifecycle.

    ``requesters`` tracks which worker threads have already asked for this
    group: with a process-wide atomic flag (WaitFree/XWrite) the first
    requester suppresses everyone; with per-thread request tracking
    (Sequential, PerThread) each thread's first touch sends its own
    message.
    """

    present: bool = False
    requesters: set = field(default_factory=set)
    waiters: list = field(default_factory=list)
    #: cancellable timeout timer of the outstanding send (fault runs only)
    timer: Any = None
    #: physical sends so far (1 + retries)
    attempts: int = 0


class TraversalSim:
    """One configured simulation; call :meth:`run`."""

    def __init__(
        self,
        workload: WorkloadSpec,
        machine: MachineSpec = STAMPEDE2,
        n_processes: int = 4,
        workers_per_process: int | None = None,
        cache_model: CacheModel = WAITFREE,
        cost: CostModel | None = None,
        traversal_style: str | None = None,
        collect_trace: bool = False,
        processes_per_node: int = 1,
        telemetry: Telemetry | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        critical_path: bool = False,
    ) -> None:
        self.workload = workload
        self.machine = machine
        self.n_processes = n_processes
        self.workers = workers_per_process or machine.workers_per_node
        self.cache_model = cache_model
        base_cost = cost or CostModel()
        self.cost = base_cost.scaled_to(machine.clock_ghz)
        # None: the walk the cost model is calibrated to (multiplier 1).  The
        # simulated machine's style is unrelated to which engine computed
        # the interaction lists being replayed.
        self.style_factor = (1.0 if traversal_style is None
                             else self.cost.style_factor(traversal_style))
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        # Telemetry wants the timeline: the exported Chrome trace reproduces
        # the Projections-style Fig 9 view from the worker intervals.
        self.collect_trace = collect_trace or self.telemetry.enabled
        # Placement: block maps, hierarchy-preserving for SFC orders.
        self.part_proc = (
            np.arange(workload.n_partitions, dtype=np.int64) * n_processes
        ) // workload.n_partitions
        self.st_proc = (
            np.arange(workload.n_subtrees, dtype=np.int64) * n_processes
        ) // workload.n_subtrees

        self.sim = Simulator()
        self.trace = ActivityTrace() if self.collect_trace else None
        self.pools = [
            WorkerPool(self.sim, self.workers, trace=self.trace, process_id=p)
            for p in range(n_processes)
        ]
        #: home-side response serialization pipes (injection bandwidth)
        self.pipes = [FifoResource(self.sim, capacity=1) for _ in range(n_processes)]
        #: per-process comm thread: serializes outgoing fills in arrival
        #: order (Charm++ SMP comm thread), so duplicated requests queue
        #: behind the originals instead of racing them.
        self.comm_threads = [FifoResource(self.sim, capacity=1) for _ in range(n_processes)]
        #: XWrite: analytic per-process insertion mutex (time it frees up).
        self.mutex_free_at = [0.0] * n_processes
        #: Sequential: the single designated writer thread per process
        self.writers = [FifoResource(self.sim, capacity=1) for _ in range(n_processes)]
        self.states: list[dict[tuple[int, int], _GroupState]] = [
            {} for _ in range(n_processes)
        ]
        self.requests = 0
        self.duplicate_requests = 0
        self.bytes_moved = 0.0
        # Topology: processes sharing a node exchange messages through
        # shared memory; everything else crosses the network.
        self.processes_per_node = max(int(processes_per_node), 1)
        # Fault injection + recovery.  The injector is None on the fault-free
        # path, which therefore costs one `is not None` check per message
        # leg and schedules no timers at all.
        self.injector = as_injector(faults)
        self.retry: RetryPolicy = (
            self.injector.plan.retry if self.injector is not None else RetryPolicy()
        )
        #: per-process service-time multiplier (stragglers > 1)
        self._slow: list[float] = [1.0] * n_processes
        #: processes currently down (process -> restart-complete time)
        self._crashed_until: dict[int, float] = {}
        #: one CrashRecovery per fired crash event, in crash order
        self.recovery_events: list[CrashRecovery] = []
        #: lazily computed per-process checkpoint blob sizes
        self._ckpt_bytes_by_proc: np.ndarray | None = None
        # Critical-path recording: one shared event graph; the pools and
        # FIFO resources record their own queue/service nodes, the request
        # lifecycle below records the wire legs.  None keeps every hook on
        # the `is not None` fast path.
        self.cp: CPRecorder | None = CPRecorder() if critical_path else None
        if self.cp is not None:
            for pool in self.pools:
                pool.cp = self.cp
            for p, res in enumerate(self.comm_threads):
                res.cp = self.cp
                res.cp_label = "response serialize"
                res.cp_kind = "latency"
                res.cp_resource = f"comm.p{p}"
            for p, res in enumerate(self.pipes):
                res.cp = self.cp
                res.cp_label = "response send"
                res.cp_kind = "latency"
                res.cp_resource = f"pipe.p{p}"
            for p, res in enumerate(self.writers):
                res.cp = self.cp
                res.cp_label = "cache insertion"
                res.cp_kind = "compute"
                res.cp_resource = f"writer.p{p}"

    def _latency(self, a: int, b: int) -> float:
        if a // self.processes_per_node == b // self.processes_per_node:
            return self.machine.intra_latency_s
        return self.machine.net_latency_s

    # -- helpers --------------------------------------------------------------
    def _cache_key(self, group: int, thread: int) -> tuple[int, int]:
        """Which cache holds the fill: per-thread caches (PerThread) key by
        thread; every process-visible cache keys by group only."""
        if self.cache_model.name == "PerThread":
            return (thread % self.workers, group)
        return (0, group)

    def _enable(self, proc: int, state: _GroupState, cp: int | None = None) -> None:
        if state.timer is not None:
            # The fill landed: disarm the pending timeout so the fault-free
            # timeline (and final clock) is untouched by the timer.
            state.timer.cancel()
            state.timer = None
        state.present = True
        waiters = state.waiters
        state.waiters = []
        slow = self._slow[proc]
        for work in waiters:
            self.pools[proc].submit(work * slow, label="traversal resumption", cp=cp)

    def _request_group(self, proc: int, group: int, thread_hint: int,
                       origin: int | None = None) -> _GroupState:
        """Issue (or join) the fetch of ``group`` on process ``proc``."""
        thread = thread_hint % self.workers
        state = self.states[proc].setdefault(self._cache_key(group, thread), _GroupState())
        if state.present:
            return state
        if self.cache_model.dedupe_scope == "process":
            # Atomic requested flag on the placeholder: first toucher only.
            if state.requesters:
                return state
            requester = 0
        else:
            # Per-thread request tracking (no shared flag): each thread's
            # first touch sends its own message.
            if thread in state.requesters:
                return state
            requester = thread
        is_duplicate = bool(state.requesters)
        state.requesters.add(requester)
        if is_duplicate:
            self.duplicate_requests += 1
        self.requests += 1
        home = int(self.st_proc[self.workload.groups.group_subtree[group]])
        size = float(self.workload.groups.group_bytes[group])
        self._issue_request(proc, home, state, group, size, attempt=0, origin=origin)
        return state

    def _issue_request(
        self, proc: int, home: int, state: _GroupState, group: int,
        size: float, attempt: int, origin: int | None = None,
    ) -> None:
        """One physical send of the request, with per-leg faults applied
        and (on fault runs) a cancellable timeout that re-sends with
        exponential backoff."""
        sim = self.sim
        inj = self.injector
        cp = self.cp
        # Wire-leg nodes of this send, threaded through the closures so the
        # serialize -> send -> insert chain records causal edges.
        cp_req: list[int | None] = [None]
        cp_ret: list[int | None] = [None]
        send_time = size / self.machine.net_bandwidth_Bps
        # Stragglers slow CPU-bound steps: the home's serialization and the
        # requester's insertion, not wire latency or bandwidth.
        serialize_time = (
            self.cost.serialize_fixed + self.cost.serialize_per_byte * size
        ) * self._slow[home]
        insert_time = (
            self.cost.insert_fixed + self.cost.insert_per_byte * size
        ) * self._slow[proc]

        def arrive_home():
            # The home's comm thread serializes the response in arrival
            # order, then it streams through the injection-bandwidth pipe —
            # §III-A's "costs of these extra requests and responses" land
            # here when a cache design duplicates fetches (and when faults
            # force resends).
            self.bytes_moved += size
            self.comm_threads[home].submit(
                serialize_time,
                on_done=lambda: self.pipes[home].submit(
                    send_time, on_done=back_in_flight,
                    cp=self.comm_threads[home].cp_last if cp is not None else None,
                ),
                cp=cp_req[0],
            )

        def back_in_flight():
            latency = self._latency(home, proc)
            if inj is None:
                delay = latency
            else:
                if inj.drop_message():
                    return  # response lost; the timeout will re-send
                delay = inj.jittered(latency)
            if cp is not None:
                cp_ret[0] = cp.add(
                    "response wire", "latency", sim.now, sim.now + delay,
                    f"net.p{home}-p{proc}",
                    (self.pipes[home].cp_last,) if self.pipes[home].cp_last is not None else (),
                )
            sim.schedule(delay, do_insert)
            if inj is not None and inj.duplicate_message():
                sim.schedule(inj.jittered(latency), do_insert)

        def do_insert():
            if state.present:
                return  # a duplicate response landed after the first fill
            if inj is not None:
                if self._is_crashed(proc):
                    # The response reached a process that is down: lost with
                    # everything else in its memory; the timeout (still
                    # armed) re-sends after the restart.
                    inj.counters.drops += 1
                    return
                if state.timer is not None:
                    # The response made it back: the loss timeout is done.
                    # From here on the insertion is local work whose
                    # completion the worker pool guarantees.
                    state.timer.cancel()
                    state.timer = None
                if inj.fill_fails():
                    # Transient insertion failure after the data arrived —
                    # detected locally (unlike a lost message), so retry
                    # immediately instead of waiting out a timeout.
                    self._retry(proc, home, state, group, size, attempt,
                                reason="fill failure", sent_at=sent_at)
                    return
            policy = self.cache_model.insert_policy
            if policy == "parallel":
                # Wait-free: any worker inserts; dispatched to the least busy.
                self.pools[proc].submit_to_least_busy(
                    insert_time, label="cache insertion",
                    on_done=lambda: self._enable(
                        proc, state, cp=self.pools[proc].cp_last),
                    cp=cp_ret[0],
                )
            elif policy == "locked":
                # Exclusive write: the inserting worker spins until the
                # process-wide lock frees, then holds it for the insert —
                # both the wait and the insert burn worker time, which is
                # the degradation mechanism the paper observes at scale.
                # (On the critical path the lock wait is folded into the
                # insertion's compute time — it burns the worker either way.)
                now = sim.now
                wait = max(0.0, self.mutex_free_at[proc] - now)
                self.mutex_free_at[proc] = now + wait + insert_time
                self.pools[proc].submit_to_least_busy(
                    wait + insert_time, label="cache insertion",
                    on_done=lambda: self._enable(
                        proc, state, cp=self.pools[proc].cp_last),
                    cp=cp_ret[0],
                )
            else:  # single_thread
                # All fills funnel through the one designated writer; the
                # queue at that writer delays dependent traversals.
                self.writers[proc].submit(
                    insert_time,
                    on_done=lambda: self._enable(
                        proc, state, cp=self.writers[proc].cp_last),
                    cp=cp_ret[0],
                )

        latency_out = self._latency(proc, home)
        if inj is None:
            if cp is not None:
                cp_req[0] = cp.add(
                    "request wire", "latency", sim.now, sim.now + latency_out,
                    f"net.p{proc}-p{home}", (origin,) if origin is not None else (),
                )
            sim.schedule(latency_out, arrive_home)
            return
        # Fault path: apply request-leg faults and arm the retry timeout.
        sent_at = sim.now
        if not inj.drop_message():
            delay_out = inj.jittered(latency_out)
            if cp is not None:
                cp_req[0] = cp.add(
                    "request wire", "latency", sim.now, sim.now + delay_out,
                    f"net.p{proc}-p{home}", (origin,) if origin is not None else (),
                )
            sim.schedule(delay_out, arrive_home)
            if inj.duplicate_message():
                sim.schedule(inj.jittered(latency_out), arrive_home)
        state.attempts = attempt + 1
        # The timeout guards against *message loss* only — once the
        # response is back (do_insert) the timer is disarmed, because the
        # insertion is local work the worker pool is guaranteed to finish.
        self._arm_timeout(proc, home, state, group, size, attempt, sent_at)

    def _net_rtt(self, proc: int, home: int, size: float) -> float:
        """Round-trip estimate for a request message under the *current*
        congestion of the home's comm thread and injection pipe."""
        send_time = size / self.machine.net_bandwidth_Bps
        serialize_time = (
            self.cost.serialize_fixed + self.cost.serialize_per_byte * size
        ) * self._slow[home]
        return (
            self._latency(proc, home)
            + (self.comm_threads[home].backlog_jobs + 1) * serialize_time
            + (self.pipes[home].backlog_jobs + 1) * send_time
            + self._latency(home, proc)
        )

    def _arm_timeout(
        self, proc: int, home: int, state: _GroupState, group: int,
        size: float, attempt: int, sent_at: float,
    ) -> None:
        window = self.retry.timeout_for(attempt, self._net_rtt(proc, home, size))

        def on_timeout():
            self._on_timeout(proc, home, state, group, size, attempt, sent_at,
                             this_timer)

        this_timer = self.sim.schedule(window, on_timeout, silent=True)
        if state.timer is not None:
            # Thread-scope models send duplicate requests for one group
            # state; a single outstanding timeout (the newest send) covers
            # the fill.  Cancelling the superseded timer keeps it from
            # firing into the stale guard later — which would silently
            # stretch the simulated clock.
            state.timer.cancel()
        state.timer = this_timer

    def _on_timeout(
        self, proc: int, home: int, state: _GroupState, group: int,
        size: float, attempt: int, sent_at: float, this_timer,
    ) -> None:
        if state.present or state.timer is not this_timer:
            # The fill landed (or a newer send owns the request); a stale
            # timer must not trigger a duplicate retry chain.
            return
        if self.comm_threads[home].backlog_jobs or self.pipes[home].backlog_jobs:
            # The home is still streaming responses — ours may simply be
            # queued behind them (a burst of requests can outgrow any
            # window estimated at send time).  Extend the wait instead of
            # burning an attempt: loss is only declared against an idle
            # home, which keeps congestion from masquerading as loss and
            # starving the retry budget.
            self._arm_timeout(proc, home, state, group, size, attempt, sent_at)
            return
        state.timer = None
        self.injector.counters.timeouts += 1
        self._retry(proc, home, state, group, size, attempt,
                    reason="timeout", sent_at=sent_at)

    def _retry(
        self, proc: int, home: int, state: _GroupState, group: int,
        size: float, attempt: int, reason: str, sent_at: float | None = None,
    ) -> None:
        """Re-send with exponential backoff; structured failure at the cap."""
        counters = self.injector.counters
        if attempt + 1 >= self.retry.max_attempts:
            raise IterationFailure(
                f"retries exhausted after {reason}",
                process=proc, group=group, attempts=attempt + 1,
                sim_time=self.sim.now, counters=counters,
            )
        counters.retries += 1
        if self.telemetry.enabled and sent_at is not None:
            # The retry interval as a span on simulated time: from the
            # failed send to the re-send.
            self.telemetry.tracer.complete(
                "faults.retry", sent_at, self.sim.now, cat="faults",
                pid=proc, group=group, attempt=attempt,
            )
        self.telemetry.flight.record(
            "faults.retry", process=proc, group=group, attempt=attempt,
            reason=reason, sim_time=self.sim.now,
        )
        self._issue_request(proc, home, state, group, size, attempt=attempt + 1)

    # -- crash-with-restart ----------------------------------------------------
    def _is_crashed(self, proc: int) -> bool:
        until = self._crashed_until.get(proc)
        return until is not None and self.sim.now < until

    def _checkpoint_bytes(self, proc: int) -> float:
        """Size of the rank's in-memory checkpoint blob: the fill payload
        of every fetch group homed on it (the Subtree data that rank owns)
        plus a fixed header for particle/bookkeeping state."""
        if self._ckpt_bytes_by_proc is None:
            group_bytes = np.asarray(self.workload.groups.group_bytes, dtype=np.float64)
            home = self.st_proc[np.asarray(self.workload.groups.group_subtree)]
            self._ckpt_bytes_by_proc = np.bincount(
                home, weights=group_bytes, minlength=self.n_processes
            )
        return float(self._ckpt_bytes_by_proc[proc]) + 4096.0

    def _crash(self, proc: int, restart_delay: float) -> None:
        """Process ``proc`` dies now and restarts ``restart_delay`` later —
        and the crash *loses state*, which recovery must pay to rebuild:

        * every present cache line is forgotten (cold cache: later buckets
          re-request those groups) and counted as lost bytes;
        * responses in flight to the process are lost (their timeouts
          re-send after the restart);
        * queued worker tasks stall through the restart window, then are
          re-issued from the preempted queues;
        * after the restart the process fetches its buddy's in-memory
          checkpoint replica (Charm++ double checkpointing): request
          latency to the buddy, serialization on the buddy's comm thread,
          the blob through the buddy's injection pipe, latency back, and a
          local deserialize that stalls every worker again.  Re-issued
          traversal work overlaps the fetch (the restarted workers chew
          their queues while the blob streams in), mirroring a restart
          that overlaps recovery with recomputation.

        On single-process runs there is no buddy; the local blob is
        reloaded, paying deserialize time only.
        """
        sim = self.sim
        self.injector.counters.crash_restarts += 1
        self._crashed_until[proc] = sim.now + restart_delay
        self.telemetry.flight.record(
            "des.crash", process=proc, sim_time=sim.now,
            restart_delay=restart_delay,
        )
        group_bytes = self.workload.groups.group_bytes
        lost_lines = 0
        lost_bytes = 0.0
        in_flight = 0
        for key, st in self.states[proc].items():
            if st.present:
                st.present = False
                st.requesters.clear()
                lost_lines += 1
                lost_bytes += float(group_bytes[key[1]])
            elif st.requesters:
                in_flight += 1
        tasks_reissued = self.pools[proc].queued
        self.pools[proc].preempt_all(restart_delay, label="restart")

        buddy = (proc + 1) % self.n_processes if self.n_processes > 1 else None
        ckpt_bytes = self._checkpoint_bytes(proc)
        rec = CrashRecovery(
            process=proc, buddy=buddy, crashed_at=sim.now,
            restart_delay=restart_delay, lost_cache_lines=lost_lines,
            lost_bytes=lost_bytes, requests_in_flight=in_flight,
            tasks_reissued=tasks_reissued, checkpoint_bytes=ckpt_bytes,
        )
        self.recovery_events.append(rec)

        deserialize_time = (
            self.cost.insert_fixed + self.cost.insert_per_byte * ckpt_bytes
        ) * self._slow[proc]

        def finish_recovery():
            rec.recovered_at = sim.now
            self.telemetry.flight.record(
                "des.recovered", process=proc, sim_time=sim.now,
                bytes_refetched=rec.bytes_refetched,
            )

        def deserialize():
            if buddy is not None:
                rec.bytes_refetched = ckpt_bytes
            self.pools[proc].preempt_all(deserialize_time, label="checkpoint load")
            sim.schedule(deserialize_time, finish_recovery)

        if buddy is None:
            sim.schedule(restart_delay, deserialize)
            return

        serialize_time = (
            self.cost.serialize_fixed + self.cost.serialize_per_byte * ckpt_bytes
        ) * self._slow[buddy]
        send_time = ckpt_bytes / self.machine.net_bandwidth_Bps

        def response_back():
            sim.schedule(self._latency(buddy, proc), deserialize)

        def request_arrives():
            # The checkpoint channel is reliable (the recovery protocol
            # retries internally), but it shares the buddy's comm thread
            # and injection pipe with regular fills, so a busy buddy slows
            # the recovery — and the blob slows the buddy's own responses.
            self.bytes_moved += ckpt_bytes
            self.comm_threads[buddy].submit(
                serialize_time,
                on_done=lambda: self.pipes[buddy].submit(
                    send_time, on_done=response_back
                ),
            )

        def start_fetch():
            sim.schedule(self._latency(proc, buddy), request_arrives)

        sim.schedule(restart_delay, start_fetch)

    def _export_telemetry(
        self, telemetry: Telemetry, total_time: float, activity: dict[str, float],
        cp_report: CriticalPathReport | None = None,
        recovery: RecoveryReport | None = None,
    ) -> None:
        """Fold the finished simulation into the telemetry session: every
        worker-task interval becomes a trace event on simulated time (pid =
        process, tid = worker — the Fig 9 timeline), and the communication
        counters land in the metrics registry."""
        if self.trace is not None:
            telemetry.tracer.record_activity_trace(self.trace)
        metrics = telemetry.metrics
        model = self.cache_model.name
        if self.trace is not None and self.trace.intervals:
            # Per-task simulated service durations, vectorised into the
            # log2 latency histogram (the DES analogue of exec.task.latency,
            # what SLO specs evaluate over simulated traffic shapes).
            iv = np.asarray(
                [(s, e) for (_, _, s, e, _) in self.trace.intervals],
                dtype=np.float64,
            )
            metrics.latency("des.task.latency", model=model).observe_many(
                iv[:, 1] - iv[:, 0]
            )
        metrics.counter("des.requests", model=model).inc(self.requests)
        metrics.counter("des.duplicate_requests", model=model).inc(self.duplicate_requests)
        metrics.counter("des.bytes_moved", model=model).inc(self.bytes_moved)
        metrics.counter("des.events", model=model).inc(self.sim.events_processed)
        metrics.gauge("des.sim_time", model=model).set(total_time)
        for label, seconds in activity.items():
            metrics.counter("des.busy_seconds", model=model, activity=label).inc(seconds)
        if self.injector is not None:
            metrics.absorb_fault_counters(self.injector.counters, model=model)
        if cp_report is not None:
            telemetry.tracer.record_critical_path(cp_report)
            for kind, seconds in cp_report.components.items():
                metrics.gauge("des.critical_path", model=model, kind=kind).set(seconds)
        if recovery is not None:
            telemetry.tracer.record_recovery(recovery)
            metrics.absorb_recovery_report(recovery, model=model)

    # -- main -------------------------------------------------------------------
    def run(self) -> SimResult:
        wl = self.workload
        st_proc = self.st_proc
        group_subtree = wl.groups.group_subtree
        factor = self.style_factor
        if self.injector is not None:
            # Per-process draws happen once, up front, in process order —
            # the straggler factors then scale every CPU-bound service time,
            # and crashes are pinned to fractions of the estimated
            # fault-free makespan.
            self._slow = self.injector.straggler_factors(self.n_processes)
            est_makespan = wl.total_work * factor / max(
                self.n_processes * self.workers, 1
            )
            for ev in self.injector.crash_events(self.n_processes):
                self.sim.schedule(
                    ev.at_fraction * est_makespan,
                    lambda p=ev.process, d=ev.restart_fraction * est_makespan:
                        self._crash(p, d),
                )
        # Buckets are spatially contiguous in workload order (tree order);
        # block-assign them to worker threads within each process so
        # per-thread caches overlap only at block borders, like partitions
        # bound to PEs do in the real runtime.
        proc_of_bucket = [int(self.part_proc[b.partition]) for b in wl.buckets]
        per_proc_seq: dict[int, int] = {}
        seq_in_proc = []
        for p in proc_of_bucket:
            seq_in_proc.append(per_proc_seq.get(p, 0))
            per_proc_seq[p] = seq_in_proc[-1] + 1
        thread_hints = [
            (s * self.workers) // max(per_proc_seq[p], 1)
            for s, p in zip(seq_in_proc, proc_of_bucket)
        ]
        for seq, bucket in enumerate(wl.buckets):
            proc = proc_of_bucket[seq]
            local_work = 0.0
            remote: list[tuple[int, float]] = []
            for g, w in bucket.work_by_group.items():
                if g < 0 or int(st_proc[group_subtree[g]]) == proc:
                    local_work += w * factor
                else:
                    remote.append((g, w * factor))

            def start_bucket(proc=proc, remote=remote, hint=thread_hints[seq]):
                slow = self._slow[proc]
                # The local traversal task that is just starting is the
                # causal origin of every request it issues.
                origin = self.pools[proc].cp_last if self.cp is not None else None
                # Issuing the requests costs worker time ("cache request").
                for g, w in remote:
                    state = self._request_group(proc, g, thread_hint=hint,
                                                origin=origin)
                    if state.present:
                        self.pools[proc].submit(w * slow,
                                                label="traversal resumption",
                                                cp=origin)
                    else:
                        state.waiters.append(w)
                if remote:
                    self.pools[proc].submit(
                        self.cost.request_cpu * len(remote) * slow,
                        label="cache request", cp=origin,
                    )

            # Requests go out when this bucket's local traversal *starts*
            # (the traversal discovers its remote needs as it walks), which
            # spreads requests through the iteration like Fig 9 shows.
            self.pools[proc].submit(
                max(local_work, 1e-12) * self._slow[proc], label="local traversal",
                on_start=start_bucket,
            )

        telemetry = self.telemetry
        with telemetry.tracer.span(
            "des.run", cat="des.loop",
            n_processes=self.n_processes, workers=self.workers,
            cache_model=self.cache_model.name, machine=self.machine.name,
        ):
            total_time = self.sim.run()
        activity = activity_totals(self.trace) if self.trace else {
            "busy": sum(p.busy_time for p in self.pools)
        }
        cp_report = None
        if self.cp is not None:
            cp_report = analyze_critical_path(
                self.cp,
                makespan=total_time,
                barrier_wait=(barrier_waits(self.trace, total_time)
                              if self.trace is not None else None),
            )
        recovery = (
            RecoveryReport(list(self.recovery_events))
            if self.recovery_events else None
        )
        if telemetry.enabled:
            self._export_telemetry(telemetry, total_time, activity, cp_report,
                                   recovery)
        return SimResult(
            time=total_time,
            n_processes=self.n_processes,
            workers_per_process=self.workers,
            cache_model=self.cache_model.name,
            requests=self.requests,
            duplicate_requests=self.duplicate_requests,
            bytes_moved=self.bytes_moved,
            activity=activity,
            trace=self.trace,
            events=self.sim.events_processed,
            faults=self.injector.counters if self.injector is not None else None,
            critical_path=cp_report,
            recovery=recovery,
            cp_graph=self.cp,
        )


def simulate_traversal(
    workload: WorkloadSpec,
    machine: MachineSpec = STAMPEDE2,
    n_processes: int = 4,
    workers_per_process: int | None = None,
    cache_model: CacheModel = WAITFREE,
    cost: CostModel | None = None,
    traversal_style: str | None = None,
    collect_trace: bool = False,
    processes_per_node: int = 1,
    telemetry: Telemetry | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    critical_path: bool = False,
) -> SimResult:
    """Convenience wrapper: configure and run one :class:`TraversalSim`."""
    return TraversalSim(
        workload,
        machine=machine,
        n_processes=n_processes,
        workers_per_process=workers_per_process,
        cache_model=cache_model,
        cost=cost,
        traversal_style=traversal_style,
        collect_trace=collect_trace,
        processes_per_node=processes_per_node,
        telemetry=telemetry,
        faults=faults,
        critical_path=critical_path,
    ).run()
