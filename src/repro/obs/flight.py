"""Flight recorder: a bounded ring buffer of structured runtime events,
and :func:`null_twin`, which derives every disabled telemetry object.

The recorder is the black box of a run.  Producers all over the codebase
(span open/close, exec chunk completions, cache fill/park/resume, fault
retries, checkpoint commits, DES crash recoveries) call
:meth:`FlightRecorder.record`; the buffer keeps the most recent
``capacity`` events and drops the oldest, so memory stays bounded no
matter how long the run.  When a run dies, :meth:`maybe_crash_dump`
writes the buffer to disk so the failure leaves a record of what the
system was doing in its final moments; ``repro obs dump`` pretty-prints
that file.

When telemetry is off, every call site holds :data:`NULL_FLIGHT`, the
:func:`null_twin` of :class:`FlightRecorder`, whose ``record`` does nothing
— the disabled cost is one attribute load and an empty call, which the
overhead tests pin down.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "FlightRecorder",
    "NULL_FLIGHT",
    "NULL_RETURNS",
    "FLIGHT_SCHEMA",
    "format_flight_dump",
    "null_twin",
]

#: schema tag written into every dump, bumped on breaking layout changes
FLIGHT_SCHEMA = "repro.flight/1"

#: What a :func:`null_twin` member returns (a method) or holds (a property,
#: slot or class attribute), by name.  ``record_*`` methods return 0 and
#: every other member None.
NULL_RETURNS: dict[str, Any] = {
    "enabled": False,
    "span": nullcontext(),
    "collect": [], "find": [], "snapshot": [],
    "__len__": 0, "recorded": 0, "dropped": 0, "open_spans": 0,
    "events": (),
    "total": 0.0, "quantile": 0.0,
}


def _returning(value: Any) -> Callable[..., Any]:
    if isinstance(value, list):  # a fresh list per call: callers may extend it
        return lambda *args, **kwargs: []
    return lambda *args, **kwargs: value


def null_twin(*live: type, **returns: Any) -> Any:
    """A shared do-nothing stand-in for instances of the ``live`` classes.

    Generated from their public members (and ``__len__``), so a member
    added to a live class works with telemetry off without a hand-written
    twin: each method becomes a no-op returning its :data:`NULL_RETURNS`
    value, or its ``returns`` override, and each property, slot or class
    attribute holds that value.
    """
    returns = {**NULL_RETURNS, **returns}
    members: dict[str, Any] = {}
    for cls in live:
        for name in dir(cls):
            if name.startswith("_") and name != "__len__":
                continue
            value = returns.get(name, 0 if name.startswith("record_") else None)
            if inspect.isfunction(inspect.getattr_static(cls, name)):
                value = _returning(value)
            members[name] = value
    return type("Null" + "".join(cls.__name__ for cls in live), (),
                {"__slots__": (), "__module__": live[0].__module__, **members})()


class FlightRecorder:
    """Bounded ring buffer of ``(t, kind, detail)`` events."""

    __slots__ = ("capacity", "clock", "recorded", "_ring", "_armed_path",
                 "_crash_dumped")

    def __init__(self, capacity: int = 4096,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self._ring: deque[tuple[float, str, dict[str, Any]]] = deque(maxlen=capacity)
        #: total events ever recorded (recorded - len(ring) = dropped)
        self.recorded = 0
        self._armed_path: Path | None = None
        self._crash_dumped = False

    def record(self, kind: str, **detail: Any) -> None:
        """Append one event; O(1), never raises on a full buffer."""
        self.recorded += 1
        self._ring.append((self.clock(), kind, detail))

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._ring)

    def snapshot(self) -> list[tuple[float, str, dict[str, Any]]]:
        """Oldest-first copy of the current buffer contents."""
        return list(self._ring)

    # -- dumping -------------------------------------------------------------
    def to_dict(self, reason: str = "manual") -> dict[str, Any]:
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "wall_time": time.time(),
            "events": [
                {"t": t, "kind": kind, **({"detail": detail} if detail else {})}
                for t, kind, detail in self._ring
            ],
        }

    def dump(self, path: str | Path, reason: str = "manual") -> Path:
        """Write the buffer as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(reason), indent=2))
        return path

    def arm(self, path: str | Path) -> None:
        """Arm dump-on-crash: the next :meth:`maybe_crash_dump` writes to
        ``path``.  Re-arming resets the once-per-arm latch."""
        self._armed_path = Path(path)
        self._crash_dumped = False

    def maybe_crash_dump(self, exc: BaseException | None = None) -> Path | None:
        """Dump to the armed path (once per arm); no-op when unarmed."""
        if self._armed_path is None or self._crash_dumped:
            return None
        self._crash_dumped = True
        reason = f"crash: {type(exc).__name__}: {exc}" if exc is not None else "crash"
        return self.dump(self._armed_path, reason=reason)


NULL_FLIGHT = null_twin(FlightRecorder)


def format_flight_dump(doc: dict[str, Any], last: int | None = None) -> str:
    """Human-readable rendering of a dump (``repro obs dump``)."""
    events = doc.get("events", [])
    shown = events if last is None else events[-last:]
    lines = [
        f"flight recorder dump — reason: {doc.get('reason', '?')}",
        f"  events: {len(shown)} shown / {doc.get('recorded', len(events))} "
        f"recorded ({doc.get('dropped', 0)} dropped, "
        f"capacity {doc.get('capacity', '?')})",
    ]
    t0 = shown[0]["t"] if shown else 0.0
    for ev in shown:
        detail = ev.get("detail", {})
        extras = " ".join(f"{k}={v}" for k, v in detail.items())
        lines.append(f"  +{ev['t'] - t0:10.6f}s  {ev['kind']:<24s} {extras}".rstrip())
    return "\n".join(lines)
