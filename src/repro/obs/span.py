"""Span tracing: nested, labelled wall-clock (or simulated-clock) intervals.

A :class:`Span` is one timed interval with a name, a category, and free-form
``args``; spans opened while another span is active nest inside it.  The
:class:`Tracer` collects closed spans as Chrome trace-event dictionaries
(``ph == "X"`` complete events, timestamps in microseconds), which is what
Perfetto and ``chrome://tracing`` load directly — the same timeline view the
paper reads off Charm++ Projections (Fig 9, Fig 12).

Two clock domains are supported:

* real time — the default ``time.perf_counter`` clock, for live runs;
* simulated time — pass any zero-argument callable as ``clock`` (e.g. a DES
  ``Simulator``'s ``now``), or feed externally timed intervals through
  :meth:`Tracer.complete` / :meth:`Tracer.record_activity_trace`.

:data:`NULL_TRACER` is a shared no-op used when telemetry is disabled; its
``span()`` returns a singleton context manager so the disabled path costs
one attribute lookup and an empty ``with`` block.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .flight import NULL_FLIGHT

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: seconds -> trace-event microseconds
_US = 1e6


class Span:
    """One open interval; close it by exiting the ``with`` block."""

    __slots__ = ("tracer", "name", "cat", "args", "pid", "tid", "start", "end",
                 "depth", "span_id")

    def __init__(self, tracer: "Tracer", name: str, cat: str, pid: int, tid: int,
                 args: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.args = args
        self.start = 0.0
        self.end = 0.0
        self.depth = 0
        self.span_id = 0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.depth = len(tracer._stack)
        self.span_id = tracer._next_span_id()
        self.start = tracer.clock()
        tracer._stack.append(self)
        tracer.flight.record("span.open", name=self.name, span_id=self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self.tracer.clock()
        stack = self.tracer._stack
        # Spans close LIFO; tolerate a missed close by unwinding to self.
        while stack:
            top = stack.pop()
            if top is self:
                break
        self.tracer._emit(
            self.name, self.cat, self.start, self.end - self.start,
            self.pid, self.tid,
            dict(self.args, depth=self.depth, span_id=self.span_id),
        )
        self.tracer.flight.record(
            "span.close", name=self.name, span_id=self.span_id,
            dur=self.end - self.start,
        )
        return False


class Tracer:
    """Collects spans as Chrome trace-event dicts (in event-close order)."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None,
                 pid: int = 0, tid: int = 0) -> None:
        self.clock = clock or time.perf_counter
        self.pid = pid
        self.tid = tid
        self.events: list[dict[str, Any]] = []
        self._stack: list[Span] = []
        self._span_seq = 0
        #: flight recorder spans report into; :data:`NULL_FLIGHT` by default,
        #: replaced by :class:`~repro.obs.telemetry.Telemetry` when enabled.
        self.flight = NULL_FLIGHT

    def _next_span_id(self) -> int:
        self._span_seq += 1
        return self._span_seq

    def current_span_id(self) -> int | None:
        """ID of the innermost open span (for trace-context propagation:
        ``repro.exec`` stamps this into every ``exec.task`` event so worker
        spans nest under their pipeline phase across process boundaries)."""
        return self._stack[-1].span_id if self._stack else None

    # -- recording ----------------------------------------------------------
    def span(self, name: str, cat: str = "phase", pid: int | None = None,
             tid: int | None = None, **args: Any) -> Span:
        """Open a nested span: ``with tracer.span("tree_build"): ...``."""
        return Span(
            self, name, cat,
            self.pid if pid is None else pid,
            self.tid if tid is None else tid,
            args,
        )

    def complete(self, name: str, start: float, end: float, cat: str = "task",
                 pid: int | None = None, tid: int | None = None, **args: Any) -> None:
        """Record an externally timed interval (seconds) directly."""
        if end < start:
            raise ValueError("interval ends before it starts")
        self._emit(name, cat, start, end - start,
                   self.pid if pid is None else pid,
                   self.tid if tid is None else tid, args)

    def record_activity_trace(self, trace, cat: str = "des",
                              pid_offset: int = 0) -> int:
        """Convert a DES :class:`~repro.runtime.tracing.ActivityTrace` into
        trace events — one complete event per worker-task interval, with the
        simulated process as ``pid`` and the worker thread as ``tid``.  This
        reproduces the Projections-style Fig 9 timeline in Perfetto.

        Returns the number of events recorded.
        """
        for process, worker, start, end, label in trace.intervals:
            self._emit(label, cat, start, end - start, pid_offset + process, worker, {})
        return len(trace.intervals)

    def record_critical_path(self, report, pid: int = -1,
                             cat: str = "critical-path") -> int:
        """Render a :class:`~repro.perf.critical_path.CriticalPathReport`
        as its own highlighted track: one complete event per chain segment
        on a dedicated pid, so Perfetto shows the longest dependency chain
        as a contiguous lane above the worker timelines.

        Returns the number of events recorded.
        """
        for seg in report.segments:
            self._emit(seg.label, cat, seg.start, seg.duration, pid, 0,
                       {"kind": seg.kind, "resource": seg.resource})
        return len(report.segments)

    def record_recovery(self, report, pid: int = -2,
                        cat: str = "recovery") -> int:
        """Render a :class:`~repro.resilience.RecoveryReport` as its own
        track: per crash, one event for the restart window and (when it
        extends past the restart) one for the buddy-checkpoint fetch +
        deserialize, on a dedicated pid above the worker timelines.

        Returns the number of events recorded.
        """
        recorded = 0
        for ev in report.events:
            restart_end = ev.crashed_at + ev.restart_delay
            self._emit(
                f"restart p{ev.process}", cat, ev.crashed_at, ev.restart_delay,
                pid, 0,
                {"process": ev.process, "lost_cache_lines": ev.lost_cache_lines,
                 "lost_bytes": ev.lost_bytes, "tasks_reissued": ev.tasks_reissued,
                 "requests_in_flight": ev.requests_in_flight},
            )
            recorded += 1
            if ev.recovered_at is not None and ev.recovered_at > restart_end:
                label = (
                    f"checkpoint fetch p{ev.process}<-p{ev.buddy}"
                    if ev.buddy is not None
                    else f"checkpoint reload p{ev.process}"
                )
                self._emit(
                    label, cat, restart_end, ev.recovered_at - restart_end,
                    pid, 0,
                    {"checkpoint_bytes": ev.checkpoint_bytes,
                     "bytes_refetched": ev.bytes_refetched},
                )
                recorded += 1
        return recorded

    def _emit(self, name: str, cat: str, start: float, dur: float,
              pid: int, tid: int, args: dict[str, Any]) -> None:
        self.events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start * _US,
            "dur": dur * _US,
            "pid": pid,
            "tid": tid,
            "args": args,
        })

    # -- inspection ---------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def find(self, name: str) -> list[dict[str, Any]]:
        """All closed events with the given name (for tests/reports)."""
        return [e for e in self.events if e["name"] == name]

class _NullSpan:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: every call returns immediately, nothing is stored."""

    enabled = False
    events: tuple = ()
    open_spans = 0
    flight = NULL_FLIGHT

    def span(self, name: str, cat: str = "phase", pid: int | None = None,
             tid: int | None = None, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span_id(self) -> None:
        return None

    def complete(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_activity_trace(self, trace, cat: str = "des",
                              pid_offset: int = 0) -> int:
        return 0

    def record_critical_path(self, report, pid: int = -1,
                             cat: str = "critical-path") -> int:
        return 0

    def record_recovery(self, report, pid: int = -2,
                        cat: str = "recovery") -> int:
        return 0

    def find(self, name: str) -> list:
        return []

NULL_TRACER = NullTracer()
