"""A minimal deterministic discrete-event simulation core.

Three primitives cover everything the runtime model needs:

* :class:`Simulator` — the event loop (a heap of timestamped callbacks with
  FIFO tie-breaking, so runs are fully deterministic);
* :class:`FifoResource` — a server with fixed concurrency; models mutexes
  (capacity 1) and bandwidth-style pipes;
* :class:`WorkerPool` — the worker threads of one process: a shared ready
  queue drained by ``n_workers`` servers, plus Charm++-style targeted
  dispatch to the least-busy worker.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable

__all__ = ["Simulator", "Timer", "FifoResource", "WorkerPool"]


def _check_service_time(service_time: float) -> None:
    """Negative or non-finite service times corrupt the clock or the
    backlog accounting silently; reject them at the submission boundary."""
    if not math.isfinite(service_time):
        raise ValueError(f"non-finite service time {service_time}")
    if service_time < 0:
        raise ValueError(f"negative service time {service_time}")


class Timer:
    """Handle for one scheduled event; ``cancel()`` prevents it firing.

    Cancellation is lazy (the heap entry stays put) but *clock-invisible*:
    the event loop discards cancelled entries without advancing ``now`` or
    counting an event, so a run whose timers all get cancelled is
    bit-identical to a run that never scheduled them.  This is what lets
    the fault layer arm a timeout per request without perturbing fault-free
    results.

    ``silent`` timers additionally keep *firing* out of the public event
    count (they still advance the clock — causality requires it — and land
    in ``Simulator.silent_events``).  Timeout probes that fire only to
    discover "the response is still queued, wait longer" use this so a
    fault-free run with an armed injector reports the same
    ``events_processed`` as one without.
    """

    __slots__ = ("cancelled", "silent")

    def __init__(self, silent: bool = False) -> None:
        self.cancelled = False
        self.silent = silent

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled


class Simulator:
    """Deterministic event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None], Timer]] = []
        self._seq = 0
        self.events_processed = 0
        self.silent_events = 0

    def schedule(self, delay: float, fn: Callable[[], None],
                 silent: bool = False) -> Timer:
        """Run ``fn`` at ``now + delay``; returns a cancellable handle."""
        if not math.isfinite(delay):
            raise ValueError(f"non-finite delay {delay}")
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        timer = Timer(silent=silent)
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, timer))
        return timer

    def at(self, time: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` at absolute ``time`` (must not be in the past)."""
        return self.schedule(time - self.now, fn)

    def run(self, until: float | None = None) -> float:
        """Drain events (optionally stopping at ``until``); returns the
        final clock."""
        while self._heap:
            t, _, fn, timer = self._heap[0]
            if timer.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and t > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = t
            if timer.silent:
                self.silent_events += 1
            else:
                self.events_processed += 1
            fn()
        return self.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)


class FifoResource:
    """A server with ``capacity`` parallel slots and a FIFO backlog.

    ``submit(service_time, on_done, on_start)`` queues a job; when a slot
    frees up the job occupies it for ``service_time`` and then ``on_done``
    fires.  Capacity 1 is a mutex with queueing — the model for the
    exclusive-write cache.  Tracks total busy time and peak queue length.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._busy = 0
        self._queue: deque[tuple] = deque()
        self.busy_time = 0.0
        self.jobs_served = 0
        self.max_queue = 0
        #: critical-path recording (a ``repro.perf.critical_path.CPRecorder``
        #: or None).  When set, every job records a queue-wait node (if it
        #: waited) plus a service node, and ``cp_last`` holds the service
        #: node id during the job's ``on_start``/``on_done`` callbacks so
        #: downstream submissions can chain causally.
        self.cp = None
        self.cp_last: int | None = None
        self.cp_label = "service"
        self.cp_kind = "compute"
        self.cp_resource = "fifo"

    def submit(
        self,
        service_time: float,
        on_done: Callable[[], None] | None = None,
        on_start: Callable[[], None] | None = None,
        cp: int | None = None,
    ) -> None:
        _check_service_time(service_time)
        self._queue.append((service_time, on_done, on_start, cp, self.sim.now))
        self.max_queue = max(self.max_queue, len(self._queue))
        self._try_start()

    @property
    def backlog_jobs(self) -> int:
        """Jobs in service plus jobs queued (a congestion snapshot used by
        adaptive request timeouts)."""
        return self._busy + len(self._queue)

    def _try_start(self, freed: int | None = None) -> None:
        while self._busy < self.capacity and self._queue:
            service_time, on_done, on_start, cp_pred, t_enq = self._queue.popleft()
            self._busy += 1
            node = None
            if self.cp is not None:
                now = self.sim.now
                preds = (cp_pred,)
                if now > t_enq:
                    # A job that waited was held up by the occupant that just
                    # freed the slot; that edge lets the critical path follow
                    # the contended server instead of charging the wait.
                    wait = self.cp.add(self.cp_label + " wait", "queue",
                                       t_enq, now, self.cp_resource,
                                       (cp_pred, freed))
                    preds = (wait,)
                node = self.cp.add(self.cp_label, self.cp_kind,
                                   now, now + service_time, self.cp_resource, preds)
                self.cp_last = node
            if on_start:
                on_start()
            self.busy_time += service_time
            self.jobs_served += 1

            def finish(done=on_done, node=node):
                self._busy -= 1
                if self.cp is not None:
                    self.cp_last = node
                if done:
                    done()
                self._try_start(freed=node)

            self.sim.schedule(service_time, finish)


class WorkerPool:
    """The worker threads of one simulated process.

    Tasks pushed with :meth:`submit` go to a shared ready queue (Charm++
    scheduler style): any idle worker picks up the next task.  Tasks pushed
    with :meth:`submit_to_least_busy` are bound to the worker with the least
    backlog at submission time — the paper's policy for remote-request fill
    messages.  Each task carries an activity label for the utilisation
    trace.
    """

    def __init__(self, sim: Simulator, n_workers: int, trace=None, process_id: int = 0) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.sim = sim
        self.n_workers = n_workers
        self.trace = trace
        self.process_id = process_id
        # Task: (service_time, label, on_done, on_start, cp_pred, enqueue_time)
        self._shared: deque[tuple] = deque()
        self._bound: list[deque[tuple]] = [deque() for _ in range(n_workers)]
        self._idle: list[bool] = [True] * n_workers
        #: committed-but-unfinished service time per worker, used for the
        #: least-busy heuristic.
        self._backlog: list[float] = [0.0] * n_workers
        self.busy_time = 0.0
        self.tasks_run = 0
        #: critical-path recording (a ``repro.perf.critical_path.CPRecorder``
        #: or None).  ``cp_last`` holds the id of the node whose task is
        #: currently inside ``on_start``/``on_done``.
        self.cp = None
        self.cp_last: int | None = None

    # -- submission ---------------------------------------------------------
    def submit(self, service_time: float, label: str = "work", on_done=None,
               on_start=None, cp: int | None = None) -> None:
        _check_service_time(service_time)
        self._shared.append((service_time, label, on_done, on_start, cp, self.sim.now))
        self._wake_one()

    def submit_to_least_busy(self, service_time: float, label: str = "fill",
                             on_done=None, cp: int | None = None) -> None:
        _check_service_time(service_time)
        w = min(range(self.n_workers), key=lambda i: (self._backlog[i], i))
        self._backlog[w] += service_time
        self._bound[w].append((service_time, label, on_done, None, cp, self.sim.now))
        if self._idle[w]:
            self._run_next(w)

    def preempt_all(self, service_time: float, label: str = "restart") -> None:
        """Stall every worker for ``service_time`` at its next scheduling
        point (crash-with-restart model: tasks already executing finish,
        then the restart window runs ahead of any queued work)."""
        _check_service_time(service_time)
        for w in range(self.n_workers):
            self._backlog[w] += service_time
            self._bound[w].appendleft((service_time, label, None, None, None, self.sim.now))
            if self._idle[w]:
                self._run_next(w)

    # -- scheduling ----------------------------------------------------------
    def _wake_one(self) -> None:
        for w in range(self.n_workers):
            if self._idle[w]:
                self._run_next(w)
                return

    def _run_next(self, w: int, freed: int | None = None) -> None:
        # Bound tasks first (they were targeted deliberately), then shared.
        if self._bound[w]:
            service_time, label, on_done, on_start, cp_pred, t_enq = self._bound[w].popleft()
            bound = True
        elif self._shared:
            service_time, label, on_done, on_start, cp_pred, t_enq = self._shared.popleft()
            bound = False
        else:
            self._idle[w] = True
            return
        self._idle[w] = False
        start = self.sim.now
        node = None
        if self.cp is not None:
            resource = f"p{self.process_id}.w{w}"
            preds = (cp_pred,)
            if start > t_enq:
                # The task that just vacated this worker is what held the
                # queued task up; the edge routes the critical path through
                # the busy worker's own task chain.
                wait = self.cp.add(label + " wait", "queue", t_enq, start,
                                   resource, (cp_pred, freed))
                preds = (wait,)
            node = self.cp.add(label, "compute", start, start + service_time,
                               resource, preds)
            self.cp_last = node
        if on_start:
            on_start()
        self.busy_time += service_time
        self.tasks_run += 1

        def finish():
            if bound:
                self._backlog[w] -= service_time
            if self.trace is not None:
                self.trace.record(self.process_id, w, start, self.sim.now, label)
            if self.cp is not None:
                self.cp_last = node
            if on_done:
                on_done()
            self._run_next(w, freed=node)

        self.sim.schedule(service_time, finish)

    @property
    def queued(self) -> int:
        return len(self._shared) + sum(len(q) for q in self._bound)

