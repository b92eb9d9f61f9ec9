"""Wire protocol for the online traversal query service.

Queries and responses travel as one JSON object per line (JSONL) over a
Unix or TCP socket, and as plain dataclasses through the in-process
client used by tests and the DES model.  The schema is versioned so a
client can detect a server from a different build.

A query names an operation over the resident tree:

``knn``      k nearest particles to an arbitrary point
``range``    particles within ``radius`` of a point
``density``  SPH-style kNN density estimate at a point

Responses carry a ``status``:

``ok``       executed; ``result`` holds the answer
``shed``     rejected by admission control; ``retry_after`` says when to
             come back (the 429 + Retry-After idiom)
``expired``  admitted but its deadline passed before dispatch
``error``    malformed query or execution failure
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

SERVE_SCHEMA = "repro.serve/1"

OPS = ("knn", "range", "density")

STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_EXPIRED = "expired"
STATUS_ERROR = "error"

#: shed reasons, in the order admission control evaluates them
SHED_DRAINING = "draining"
SHED_QUEUE = "queue-full"
SHED_SLO = "slo-burn"
SHED_RATE = "rate-limit"


class ProtocolError(ValueError):
    """A line that does not decode into a valid query."""


@dataclass
class Query:
    """One client request.

    ``deadline`` is a relative budget in seconds counted from arrival;
    work still queued when it elapses is dropped before execution.
    ``t`` is an optional *scheduled* arrival offset (seconds from stream
    start).  When present, admission control consumes ``t`` instead of
    the wall clock, which makes rate-limit decisions a pure function of
    the traffic trace — the property the DES validation relies on.

    ``t`` is only honoured for trusted in-process submitters (bench,
    DES, tests).  The socket front-end strips it on decode: an attacker
    carrying a huge ``t`` would otherwise advance the token bucket's
    clock far into the future and starve every honest client.
    """

    id: str
    op: str
    point: np.ndarray
    k: int = 8
    radius: float = 0.1
    deadline: float | None = None
    t: float | None = None

    def validate(self, n_particles: int, max_k: int) -> str | None:
        """Return an error string, or None when the query is executable."""
        if self.op not in OPS:
            return f"unknown op {self.op!r} (expected one of {', '.join(OPS)})"
        if self.point.shape != (3,) or not np.all(np.isfinite(self.point)):
            return "point must be 3 finite coordinates"
        if self.op in ("knn", "density"):
            if not 1 <= self.k <= min(n_particles, max_k):
                return (f"k={self.k} out of range [1, "
                        f"{min(n_particles, max_k)}]")
        if self.op == "range" and not (np.isfinite(self.radius) and self.radius >= 0):
            return f"radius must be finite and >= 0, got {self.radius}"
        return None

    def to_wire(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": self.id, "op": self.op,
            "point": [float(c) for c in self.point],
        }
        if self.op in ("knn", "density"):
            doc["k"] = int(self.k)
        if self.op == "range":
            doc["radius"] = float(self.radius)
        if self.deadline is not None:
            doc["deadline"] = float(self.deadline)
        if self.t is not None:
            doc["t"] = float(self.t)
        return doc

    @classmethod
    def from_wire(cls, doc: dict[str, Any]) -> "Query":
        if not isinstance(doc, dict):
            raise ProtocolError("query must be a JSON object")
        try:
            point = np.asarray(doc["point"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad point: {exc}") from exc
        if point.shape != (3,):
            raise ProtocolError(f"point must have 3 coordinates, got shape {point.shape}")
        try:
            return cls(
                id=str(doc.get("id", "")),
                op=str(doc.get("op", "")),
                point=point,
                k=int(doc.get("k", 8)),
                radius=float(doc.get("radius", 0.1)),
                deadline=None if doc.get("deadline") is None else float(doc["deadline"]),
                t=None if doc.get("t") is None else float(doc["t"]),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad query field: {exc}") from exc


@dataclass
class Response:
    """Server reply for one query."""

    id: str
    status: str
    result: dict[str, Any] | None = None
    reason: str | None = None
    retry_after: float | None = None
    error: str | None = None
    queue_s: float | None = None
    service_s: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"schema": SERVE_SCHEMA, "id": self.id,
                               "status": self.status}
        for key in ("result", "reason", "retry_after", "error",
                    "queue_s", "service_s"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.meta:
            doc["meta"] = self.meta
        return doc

    @classmethod
    def from_wire(cls, doc: dict[str, Any]) -> "Response":
        return cls(
            id=str(doc.get("id", "")),
            status=str(doc.get("status", STATUS_ERROR)),
            result=doc.get("result"),
            reason=doc.get("reason"),
            retry_after=doc.get("retry_after"),
            error=doc.get("error"),
            queue_s=doc.get("queue_s"),
            service_s=doc.get("service_s"),
            meta=doc.get("meta") or {},
        )


def encode_line(doc: dict[str, Any]) -> bytes:
    """One compact JSON object, newline-terminated."""
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def decode_query_line(line: bytes | str) -> Query:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    return Query.from_wire(doc)


def shed_response(query: Query, reason: str, retry_after: float | None) -> Response:
    return Response(id=query.id, status=STATUS_SHED, reason=reason,
                    retry_after=retry_after)


def expired_response(query: Query, waited: float | None = None) -> Response:
    return Response(id=query.id, status=STATUS_EXPIRED,
                    reason="deadline", queue_s=waited)


def error_response(query: Query, message: str) -> Response:
    return Response(id=query.id, status=STATUS_ERROR, error=message)
