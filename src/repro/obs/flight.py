"""Flight recorder: a bounded ring buffer of structured runtime events.

The recorder is the black box of a run.  Producers all over the codebase
(span open/close, exec chunk completions, cache fill/park/resume, fault
retries, checkpoint commits, DES crash recoveries) call
:meth:`FlightRecorder.record`; the buffer keeps the most recent
``capacity`` events and drops the oldest, so memory stays bounded no
matter how long the run.  When a run dies, :meth:`maybe_crash_dump`
writes the buffer to disk so the failure leaves a record of what the
system was doing in its final moments; ``repro obs dump`` pretty-prints
that file.

When telemetry is off, every call site holds :data:`NULL_FLIGHT`, whose
``record`` is a bare ``pass`` — the disabled cost is one attribute load
and an empty call, which the overhead tests pin down.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "FLIGHT_SCHEMA",
    "load_flight_dump",
    "format_flight_dump",
]

#: schema tag written into every dump, bumped on breaking layout changes
FLIGHT_SCHEMA = "repro.flight/1"


class FlightRecorder:
    """Bounded ring buffer of ``(t, kind, detail)`` events."""

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


class NullFlightRecorder:
    """No-op recorder installed when telemetry is disabled."""

    __slots__ = ()

    def record(self, kind: str, **detail: Any) -> None:
        pass

    def __len__(self) -> int:
        return 0

    @property
    def recorded(self) -> int:
        return 0

    @property
    def dropped(self) -> int:
        return 0

    def snapshot(self) -> list:
        return []

    def arm(self, path) -> None:
        pass

    def maybe_crash_dump(self, exc=None) -> None:
        return None


NULL_FLIGHT = NullFlightRecorder()


# -- reading dumps back ------------------------------------------------------

def load_flight_dump(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a flight dump file."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"not a flight dump (schema={doc.get('schema')!r}, "
            f"expected {FLIGHT_SCHEMA!r})"
        )
    return doc


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
