"""Validators for the observability artifacts CI gates on.

One entry point, :func:`validate_document`, picks the checker from the
document itself — a ``traceEvents`` array means a Chrome trace, otherwise
its ``schema`` names it — and returns ``(kind, problems)``.  Each checker
returns a list of problem strings (empty means valid) and never raises on
malformed JSON:

* :func:`validate_chrome_trace` — structural Trace Event Format checks
  plus the trace-context invariant: every ``exec.task`` event must carry
  an ``args.phase_span`` that names an emitted span (by ``args.span_id``)
  whose interval contains the task, i.e. worker spans nest under their
  pipeline phase even when they crossed a process boundary;
* :func:`validate_slo_report` — the ``repro.slo/1`` schema;
* :func:`validate_flight_dump` — the ``repro.flight/1`` schema;
* :func:`validate_attribution` — the ``repro.attr/1`` schema produced by
  ``repro explain --json``.

``repro obs validate PATH`` exposes :func:`validate_document` on the CLI
so the obs-smoke CI job can gate on real artifacts; ``repro obs dump`` and
:func:`load_flight_dump` go through it too.  The ``repro.status/1`` and
``repro-bench`` formats keep their own loaders
(:func:`~repro.obs.top.read_status_file`, :func:`~repro.perf.load_report`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .attr import ARRAY_FIELDS, ATTR_SCHEMA
from .flight import FLIGHT_SCHEMA
from .slo import SLO_SCHEMA

__all__ = [
    "validate_document",
    "validate_chrome_trace",
    "validate_slo_report",
    "validate_flight_dump",
    "validate_attribution",
    "load_flight_dump",
]

#: slack (µs) for phase-span containment checks: exec.task intervals are
#: measured on worker clocks, so allow a hair of skew at the edges.
_EDGE_SLACK_US = 1e3


def validate_document(doc: Any,
                      require_exec_tasks: bool = False) -> tuple[str, list[str]]:
    """Check any observability document; returns ``(kind, problems)``.

    ``kind`` is ``"trace"`` for a document with ``traceEvents``, else its
    ``schema`` tag (``repro.slo/1``, ``repro.flight/1``, ``repro.attr/1``),
    or ``""`` when the document is none of these.  ``require_exec_tasks``
    applies to traces only.
    """
    if not isinstance(doc, dict):
        return "", [f"not a JSON object (got {type(doc).__name__})"]
    if "traceEvents" in doc:
        return "trace", validate_chrome_trace(doc, require_exec_tasks)
    schema = doc.get("schema")
    check = _CHECKERS.get(schema)
    if check is None:
        return "", [f"unknown document: no traceEvents, and schema {schema!r} "
                    f"is not one of {', '.join(_CHECKERS)}"]
    return schema, check(doc)


def validate_chrome_trace(doc: dict[str, Any],
                          require_exec_tasks: bool = False) -> list[str]:
    """Problems with a Chrome trace-event document (empty list = valid)."""
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]

    spans: dict[int, tuple[Any, float, float]] = {}  # span_id -> (name, t0, t1)
    tasks: list[tuple[float, float, dict[str, Any]]] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph, where = ev.get("ph"), f"event {i} ({ev.get('name', '?')})"
        args = ev["args"] if isinstance(ev.get("args"), dict) else {}
        if ph == "M":
            continue
        if ph == "C":
            # counter-track sample (attribution export): needs a name, a
            # timestamp, and a numeric args payload — no duration.
            problems += [f"{where}: missing {f!r}" for f in ("name", "ts", "pid")
                         if f not in ev]
            if not args:
                problems.append(f"{where}: counter without args")
            elif not all(isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"{where}: non-numeric counter value")
            continue
        if ph != "X":
            problems.append(f"event {i}: unexpected ph={ph!r}")
            continue
        problems += [f"{where}: missing {f!r}" for f in ("name", "ts", "dur", "pid", "tid")
                     if f not in ev]
        ts, dur = ev.get("ts", 0), ev.get("dur", 0)
        if not (isinstance(ts, (int, float)) and isinstance(dur, (int, float))):
            problems.append(f"{where}: non-numeric ts/dur")
            continue
        if dur < 0:
            problems.append(f"{where}: negative dur")
        if isinstance(args.get("span_id"), int):
            spans[args["span_id"]] = (ev.get("name"), ts, ts + dur)
        if ev.get("name") == "exec.task":
            tasks.append((ts, ts + dur, args))

    if require_exec_tasks and not tasks:
        problems.append("no exec.task events in trace")
    for t0, t1, args in tasks:
        phase_span = args.get("phase_span")
        if phase_span is None:
            problems.append(
                f"exec.task (backend={args.get('backend')}, "
                f"chunk={args.get('chunk')}): no phase_span"
            )
            continue
        parent = spans.get(phase_span) if isinstance(phase_span, int) else None
        if parent is None:
            problems.append(f"exec.task: phase_span {phase_span} matches no span")
            continue
        name, p0, p1 = parent
        if t0 < p0 - _EDGE_SLACK_US or t1 > p1 + _EDGE_SLACK_US:
            problems.append(
                f"exec.task [{t0:.0f}, {t1:.0f}]µs outside its phase span "
                f"{name!r} [{p0:.0f}, {p1:.0f}]µs"
            )
    return problems


def _schema_problems(doc: dict[str, Any], expected: str) -> list[str]:
    found = doc.get("schema")
    return [] if found == expected else [f"bad schema {found!r} (expected {expected!r})"]


def validate_slo_report(doc: dict[str, Any]) -> list[str]:
    """Problems with a ``repro.slo/1`` report (empty list = valid)."""
    problems = _schema_problems(doc, SLO_SCHEMA)
    spec = doc.get("spec")
    if not isinstance(spec, dict):
        problems.append("missing spec object")
    else:
        for field in ("threshold", "target", "burn_limit", "window"):
            if not isinstance(spec.get(field), (int, float)):
                problems.append(f"spec.{field} missing or non-numeric")
    if not isinstance(doc.get("n_samples"), int):
        problems.append("n_samples missing or non-integer")
    windows = doc.get("windows")
    if not isinstance(windows, list) or not windows:
        problems.append("missing windows array")
    else:
        for i, w in enumerate(windows):
            if not isinstance(w, dict):
                problems.append(f"window {i}: not an object")
                continue
            for field in ("name", "n", "bad", "burn_rate", "violated"):
                if field not in w:
                    problems.append(f"window {w.get('name', '?')}: missing {field!r}")
    if not isinstance(doc.get("violated"), bool):
        problems.append("violated missing or non-boolean")
    return problems


def validate_flight_dump(doc: dict[str, Any]) -> list[str]:
    """Problems with a ``repro.flight/1`` dump (empty list = valid)."""
    problems = _schema_problems(doc, FLIGHT_SCHEMA)
    events = doc.get("events")
    if not isinstance(events, list):
        return problems + ["missing events array"]
    last_t = None
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        if "t" not in ev or "kind" not in ev:
            problems.append(f"event {i}: missing t/kind")
            continue
        if not isinstance(ev["t"], (int, float)):
            problems.append(f"event {i}: non-numeric t")
            continue
        if not isinstance(ev.get("detail", {}), dict):
            problems.append(f"event {i}: detail is not an object")
        if last_t is not None and ev["t"] < last_t:
            problems.append(f"event {i}: timestamps not monotonic")
        last_t = ev["t"]
    return problems


def validate_attribution(doc: dict[str, Any]) -> list[str]:
    """Problems with a ``repro.attr/1`` document (empty list = valid)."""
    problems = _schema_problems(doc, ATTR_SCHEMA)
    n_nodes = doc.get("n_nodes")
    if not isinstance(n_nodes, int) or n_nodes <= 0:
        return problems + ["n_nodes missing or non-positive"]
    arrays = doc.get("arrays")
    if not isinstance(arrays, dict):
        return problems + ["missing arrays object"]
    valid: dict[str, list[int]] = {}
    for name in ARRAY_FIELDS + ("mac_rejects", "cost_ns"):
        vals = arrays.get(name)
        if not isinstance(vals, list):
            problems.append(f"arrays.{name} missing")
            continue
        if len(vals) != n_nodes:
            problems.append(
                f"arrays.{name}: length {len(vals)} != n_nodes {n_nodes}"
            )
            continue
        if any((not isinstance(v, int)) or v < 0 for v in vals):
            problems.append(f"arrays.{name}: non-integer or negative entry")
            continue
        valid[name] = vals
    totals = doc.get("totals")
    if isinstance(totals, dict):
        for name, total in totals.items():
            vals = valid.get(name)
            if vals is not None and sum(vals) != total:
                problems.append(
                    f"totals.{name}={total} != sum(arrays.{name})={sum(vals)}"
                )
    else:
        problems.append("missing totals object")
    # invariants the recorder semantics guarantee
    if all(name in valid for name in ("visits", "mac_accepts", "mac_rejects")):
        bad = sum(1 for v, a, r in zip(valid["visits"], valid["mac_accepts"],
                                       valid["mac_rejects"]) if a + r != v)
        if bad:
            problems.append(
                f"{bad} nodes violate mac_accepts + mac_rejects == visits"
            )
    for side_a, side_b in (("pn_pairs", "bucket_pn"), ("pp_pairs", "bucket_pp")):
        a, b = valid.get(side_a), valid.get(side_b)
        if a is not None and b is not None and sum(a) != sum(b):
            problems.append(
                f"source/bucket mismatch: sum({side_a})={sum(a)} != "
                f"sum({side_b})={sum(b)}"
            )
    return problems


_CHECKERS = {
    SLO_SCHEMA: validate_slo_report,
    FLIGHT_SCHEMA: validate_flight_dump,
    ATTR_SCHEMA: validate_attribution,
}


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


def load_flight_dump(path: str | Path) -> dict[str, Any]:
    """Load a flight dump file: ValueError when :func:`validate_document` finds some
    other document; its problems are left to :func:`validate_document`."""
    doc = load_json(path)
    kind, problems = validate_document(doc)
    if kind != FLIGHT_SCHEMA:
        raise ValueError(f"not a flight dump ({'; '.join(problems) or kind})")
    return doc
