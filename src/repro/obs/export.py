"""Exporters: Chrome trace-event JSON, metrics JSON/CSV, console report.

The trace format is the Trace Event Format consumed by Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``: a ``traceEvents`` array
of complete events (``ph == "X"``) with microsecond ``ts``/``dur`` and
``pid``/``tid`` lanes.  Driver-phase spans land on pid 0; DES worker
intervals keep their simulated (process, worker) as (pid, tid), which
reproduces a Projections-style Fig 9 timeline.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "metrics_dict",
    "write_metrics_json",
    "write_metrics_csv",
    "console_report",
]


def chrome_trace(telemetry_or_tracer, **other_data: Any) -> dict[str, Any]:
    """The trace as a JSON-ready dict ``{"traceEvents": [...]}``."""
    tracer = getattr(telemetry_or_tracer, "tracer", telemetry_or_tracer)
    events: list[dict[str, Any]] = list(tracer.events)
    # Name the critical-path lane(s) so the highlighted track reads as such
    # in Perfetto; "M" metadata events are the format's naming mechanism.
    cp_pids = sorted({e["pid"] for e in events if e.get("cat") == "critical-path"})
    meta = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "⚑ critical path"}}
        for pid in cp_pids
    ]
    rec_pids = sorted({e["pid"] for e in events if e.get("cat") == "recovery"})
    meta += [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "⟲ recovery"}}
        for pid in rec_pids
    ]
    doc: dict[str, Any] = {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
    }
    if other_data:
        doc["otherData"] = {k: str(v) for k, v in other_data.items()}
    return doc


def write_chrome_trace(telemetry_or_tracer, path: str, **other_data: Any) -> int:
    """Write the trace to ``path``; returns the number of events."""
    doc = chrome_trace(telemetry_or_tracer, **other_data)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])


def metrics_dict(telemetry_or_registry) -> dict[str, Any]:
    """All metric snapshots as a JSON-ready dict."""
    registry = getattr(telemetry_or_registry, "metrics", telemetry_or_registry)
    return {"metrics": registry.collect()}


def write_metrics_json(telemetry_or_registry, path: str) -> int:
    doc = metrics_dict(telemetry_or_registry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return len(doc["metrics"])


def _metric_rows(registry) -> list[dict[str, Any]]:
    rows = []
    for snap in registry.collect():
        labels = ";".join(f"{k}={v}" for k, v in sorted(snap["labels"].items()))
        if snap["type"] == "latency":
            q = snap.get("quantiles", {})
            value = snap["mean"]
            extra = (f"count={snap['count']}"
                     + "".join(f";{k}={v:.4g}" for k, v in q.items()))
        else:
            value, extra = snap["value"], ""
        rows.append({"name": snap["name"], "type": snap["type"],
                     "labels": labels, "value": value, "extra": extra})
    return rows


def write_metrics_csv(telemetry_or_registry, path: str) -> int:
    """``name,type,labels,value,extra`` rows, one per instrument."""
    registry = getattr(telemetry_or_registry, "metrics", telemetry_or_registry)
    rows = _metric_rows(registry)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["name", "type", "labels", "value", "extra"])
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def console_report(telemetry, max_rows: int = 60) -> str:
    """Human-readable summary: span totals by name, then the metrics table."""
    out = io.StringIO()
    tracer = telemetry.tracer
    events = [e for e in tracer.events if e.get("cat") != "des"]
    des_events = len(tracer.events) - len(events)

    if events:
        agg: dict[str, list[float]] = {}
        for e in events:
            slot = agg.setdefault(e["name"], [0, 0.0])
            slot[0] += 1
            slot[1] += e["dur"]
        print("-- spans " + "-" * 51, file=out)
        print(f"{'span':<32} {'count':>7} {'total ms':>12}", file=out)
        for name, (count, dur_us) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
            print(f"{name:<32} {count:>7} {dur_us / 1e3:>12.3f}", file=out)
        if des_events:
            print(f"(+ {des_events} DES timeline events on simulated time)", file=out)

    metrics = telemetry.metrics.collect()
    if metrics:
        print("-- metrics " + "-" * 49, file=out)
        print(f"{'metric':<40} {'value':>14}", file=out)
        for snap in metrics[:max_rows]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(snap["labels"].items()))
            name = snap["name"] + (f"{{{labels}}}" if labels else "")
            if snap["type"] == "latency":
                q = snap.get("quantiles", {})
                value = (f"n={snap['count']}"
                         f" p50={q.get('p50', 0.0):.4g}"
                         f" p99={q.get('p99', 0.0):.4g}")
                print(f"{name:<40} {value:>24}", file=out)
            else:
                print(f"{name:<40} {snap['value']:>14.6g}", file=out)
        if len(metrics) > max_rows:
            print(f"... {len(metrics) - max_rows} more metrics", file=out)
    return out.getvalue()
