"""The telemetry facade: one tracer + one metrics registry, plus the
process-wide "current telemetry" used by instrumentation points that have no
object to hang a reference on (traversal engines, ``build_tree``,
``decompose``, the DES).

The default current telemetry is :data:`NULL_TELEMETRY`, whose tracer,
registry and flight recorder are the shared no-op twins
:data:`~repro.obs.span.NULL_TRACER`, :data:`~repro.obs.metrics.NULL_METRICS`
and :data:`~repro.obs.flight.NULL_FLIGHT`.  None is written by hand: each
is generated at import by :func:`~repro.obs.flight.null_twin` from the
public members of the live class, so instrumented code runs the seed path
with one extra attribute lookup per instrumentation point, and a member
added to a live class needs no disabled counterpart.  Enable collection
either through :meth:`~repro.core.driver.Driver.enable_telemetry`, by
calling :func:`set_telemetry`, or scoped with :func:`use_telemetry`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable

from .flight import FlightRecorder, NULL_FLIGHT
from .metrics import MetricsRegistry, NULL_METRICS
from .span import NULL_TRACER, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "traced",
]


class Telemetry:
    """A tracer and a metrics registry that live and export together."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        enabled: bool = True,
        flight: FlightRecorder | None = None,
    ) -> None:
        self.enabled = enabled
        if enabled:
            self.tracer = tracer if tracer is not None else Tracer()
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self.flight = flight if flight is not None else FlightRecorder()
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_METRICS
            self.flight = NULL_FLIGHT
        # spans report open/close into the flight recorder through the tracer
        if getattr(self.tracer, "enabled", False):
            self.tracer.flight = self.flight

    def span(self, name: str, cat: str = "phase", **args: Any):
        """Shortcut for ``self.tracer.span(...)``."""
        return self.tracer.span(name, cat=cat, **args)

NULL_TELEMETRY = Telemetry(enabled=False)

_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The process-wide current telemetry (NULL_TELEMETRY when disabled)."""
    return _current


def set_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` as current (None disables); returns the
    previous one so callers can restore it."""
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry | None):
    """Scoped :func:`set_telemetry`; restores the previous telemetry."""
    previous = set_telemetry(telemetry)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)


def traced(name: str | None = None, cat: str = "function") -> Callable:
    """Decorator wrapping a function call in a span on the *current*
    telemetry.  Zero work when telemetry is disabled."""

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            telemetry = _current
            if not telemetry.enabled:
                return fn(*args, **kwargs)
            with telemetry.tracer.span(label, cat=cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
