"""Unified telemetry: spans, metrics, and Perfetto/Chrome-trace export.

The paper reads ParaTreeT's behaviour off observability artifacts —
Charm++ *Projections* timelines (Fig 9, Fig 12), cache hit/request counters
(Table II), per-phase profiles.  This package is the reproduction's
equivalent, one layer for the whole pipeline:

* :mod:`repro.obs.span` — nested :class:`Span`/:class:`Tracer` timing with
  real or simulated (DES) clocks;
* :mod:`repro.obs.metrics` — a labelled counter/gauge/latency registry
  (one histogram type, :class:`Log2Histogram`) that absorbs the scattered
  stats objects (``TraversalStats``, ``FetchStats``, memsim
  ``CacheStats``, ``IterationReport``);
* :mod:`repro.obs.flight` — the bounded flight recorder, and
  :func:`~repro.obs.flight.null_twin`, which generates every disabled
  telemetry object (``NULL_TRACER``, ``NULL_METRICS``, ``NULL_FLIGHT``)
  from its live class at import, so telemetry off is derived, not mirrored;
* :mod:`repro.obs.validate` — :func:`validate_document`, the one checker
  for every trace, SLO report, flight dump and attribution profile
  (``repro obs validate PATH``);
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in
  https://ui.perfetto.dev), CSV, and console reports;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade and the
  process-wide current telemetry (a no-op singleton when disabled).

Quick use::

    from repro.obs import Telemetry, use_telemetry, write_chrome_trace

    tel = Telemetry()
    with use_telemetry(tel):
        driver.run()                      # or any instrumented entry point
    write_chrome_trace(tel, "trace.json")

or end-to-end from the CLI::

    python -m repro gravity --n 5000 --trace t.json --metrics m.json
"""

from .span import NULL_TRACER, Span, Tracer
from .attr import (
    ATTR_SCHEMA,
    AttributionProfile,
    AttributionRecorder,
    format_chunk_heatmap,
)
from .hist import Log2Histogram, QUANTILES, quantile_label
from .flight import FLIGHT_SCHEMA, FlightRecorder, NULL_FLIGHT, format_flight_dump
from .metrics import Counter, Gauge, Latency, MetricsRegistry, NULL_METRICS
from .slo import (
    SLO_SCHEMA,
    SLOReport,
    SLOSpec,
    evaluate_slo,
    parse_slo_spec,
    samples_from_reports,
    samples_from_sim,
)
from .top import (
    STATUS_SCHEMA,
    Dashboard,
    StatusWriter,
    follow_status_file,
    read_status_file,
)
from .validate import (
    load_flight_dump,
    validate_attribution,
    validate_chrome_trace,
    validate_document,
    validate_flight_dump,
    validate_slo_report,
)
from .telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
    set_telemetry,
    traced,
    use_telemetry,
)
from .export import (
    chrome_trace,
    console_report,
    metrics_dict,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "ATTR_SCHEMA",
    "AttributionProfile",
    "AttributionRecorder",
    "format_chunk_heatmap",
    "Log2Histogram",
    "QUANTILES",
    "quantile_label",
    "FlightRecorder",
    "NULL_FLIGHT",
    "FLIGHT_SCHEMA",
    "load_flight_dump",
    "format_flight_dump",
    "Counter",
    "Gauge",
    "Latency",
    "MetricsRegistry",
    "NULL_METRICS",
    "SLOSpec",
    "SLOReport",
    "SLO_SCHEMA",
    "parse_slo_spec",
    "evaluate_slo",
    "samples_from_reports",
    "samples_from_sim",
    "Dashboard",
    "StatusWriter",
    "STATUS_SCHEMA",
    "read_status_file",
    "follow_status_file",
    "validate_document",
    "validate_chrome_trace",
    "validate_slo_report",
    "validate_flight_dump",
    "validate_attribution",
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "traced",
    "chrome_trace",
    "console_report",
    "metrics_dict",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_metrics_json",
]
