"""DES critical-path analysis (Projections-style).

The discrete-event simulator resolves every dependency the distributed
traversal has — request → serialize → response → insertion → resumption
chains, worker occupancy, comm-thread and injection-pipe queues — but the
seed only reports *totals* (busy seconds per activity).  This module records
the dependency edges as they are resolved and extracts the **critical
path**: the longest chain of dependent simulated work, which is what
actually bounds the iteration time (Valdarnini's treecode studies and the
event-driven N-body literature both attribute end-to-end time this way).

Recording model
---------------

Every timed activity becomes a :class:`CPNode` with a ``kind``:

* ``compute`` — worker-task execution (local traversals, resumptions,
  cache insertions, request CPU);
* ``latency`` — cache-miss latency legs (request/response wire time,
  home-side serialization, injection-bandwidth streaming);
* ``queue``   — time a ready activity waited for a busy resource (worker
  backlog, comm-thread/pipe/writer FIFOs);
* ``barrier`` — end-of-iteration wait (processes that finished before the
  slowest one; also any trailing clock advance past the last activity).

Edges point from an activity to the activities it enabled.  An edge may
come from a *completion* (a fill enables its waiters) or from a *start*
(a bucket's local traversal issues its remote requests when it begins);
the extractor handles both by clamping each predecessor's contribution at
the moment its successor became runnable.

Extraction walks backward from the activity that finishes last: at each
node it takes the predecessor that was available latest, emitting one
contiguous :class:`CPSegment` per step.  The resulting segments tile
``[0, makespan]`` exactly, so the per-kind attribution **sums to the
end-to-end simulated time by construction** — the property the regression
harness asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "CP_KINDS",
    "CPNode",
    "CPRecorder",
    "CPSegment",
    "CriticalPathReport",
    "analyze_critical_path",
    "format_components",
]

#: attribution buckets, in reporting order
CP_KINDS = ("compute", "latency", "queue", "barrier")


class CPNode:
    """One recorded activity interval with causal predecessors."""

    __slots__ = ("id", "label", "kind", "start", "end", "resource", "preds")

    def __init__(self, id: int, label: str, kind: str, start: float,
                 end: float, resource: str, preds: tuple[int, ...]) -> None:
        self.id = id
        self.label = label
        self.kind = kind
        self.start = start
        self.end = end
        self.resource = resource
        self.preds = preds

class CPRecorder:
    """Append-only event graph; the DES adds a node per resolved activity.

    Predecessor ids must already exist (they always do — edges are recorded
    in causal order), which makes the graph acyclic by construction.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[CPNode] = []

    def add(self, label: str, kind: str, start: float, end: float,
            resource: str = "", preds: Iterable[int] = ()) -> int:
        """Record one activity; returns its node id (usable as a pred)."""
        if end < start:
            raise ValueError(f"activity ends before it starts: {label}")
        node_id = len(self.nodes)
        pred_t = tuple(p for p in preds if p is not None)
        for p in pred_t:
            if not 0 <= p < node_id:
                raise ValueError(f"predecessor {p} of node {node_id} does not exist")
        self.nodes.append(CPNode(node_id, label, kind, start, end, resource, pred_t))
        return node_id

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class CPSegment:
    """One contiguous slice of the critical path."""

    label: str
    kind: str
    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "kind": self.kind,
            "resource": self.resource,
            "start": self.start,
            "end": self.end,
        }


@dataclass
class CriticalPathReport:
    """The longest chain of dependent simulated work, with attribution.

    ``components`` maps each of :data:`CP_KINDS` to the seconds the chain
    spent in that kind; the values sum to ``makespan`` exactly (the
    segments tile ``[0, makespan]``).
    """

    makespan: float
    segments: list[CPSegment] = field(default_factory=list)
    components: dict[str, float] = field(default_factory=dict)
    by_resource: dict[str, float] = field(default_factory=dict)
    by_label: dict[str, float] = field(default_factory=dict)
    #: off-chain end-of-iteration wait per simulated process
    barrier_wait: dict[int, float] = field(default_factory=dict)
    n_nodes: int = 0

    @property
    def attributed_total(self) -> float:
        return sum(self.components.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "makespan": float(self.makespan),
            "components": {k: float(v) for k, v in self.components.items()},
            "fractions": {
                k: (float(v) / self.makespan if self.makespan > 0 else 0.0)
                for k, v in self.components.items()
            },
            "by_resource": {k: float(v) for k, v in self.by_resource.items()},
            "by_label": {k: float(v) for k, v in self.by_label.items()},
            "barrier_wait": {str(k): float(v) for k, v in self.barrier_wait.items()},
            "n_nodes": int(self.n_nodes),
            "n_segments": len(self.segments),
            "segments": [s.to_dict() for s in self.segments],
        }

    def format(self, max_labels: int = 8) -> str:
        """Compact console rendering."""
        lines = [f"critical path: {self.makespan * 1e3:.3f} ms simulated, "
                 f"{len(self.segments)} segments over {self.n_nodes} activities"]
        lines.append("  " + format_components(self.components, self.makespan))
        top = sorted(self.by_label.items(), key=lambda kv: -kv[1])[:max_labels]
        for label, secs in top:
            frac = secs / self.makespan if self.makespan > 0 else 0.0
            lines.append(f"    {label:<28} {secs * 1e3:10.3f} ms  {frac:6.1%}")
        if self.barrier_wait:
            waits = list(self.barrier_wait.values())
            lines.append(
                f"  barrier wait (off-chain): mean {sum(waits) / len(waits) * 1e3:.3f} ms, "
                f"max {max(waits) * 1e3:.3f} ms across {len(waits)} processes")
        return "\n".join(lines)


def format_components(components: dict[str, float], total: float | None = None) -> str:
    """One-line ``kind=ms (pct)`` summary of an attribution dict."""
    total = total if total is not None else sum(components.values()) or 1.0
    parts = []
    for kind in CP_KINDS:
        v = components.get(kind, 0.0)
        pct = v / total if total > 0 else 0.0
        parts.append(f"{kind}={v * 1e3:.3f}ms ({pct:.0%})")
    return "  ".join(parts)


def analyze_critical_path(
    recorder: CPRecorder,
    makespan: float | None = None,
    barrier_wait: dict[int, float] | None = None,
) -> CriticalPathReport:
    """Extract the critical path from a recorded event graph.

    Walks backward from the last-finishing activity, always following the
    predecessor that was available latest.  Gaps no recorded activity
    covers are attributed as ``queue`` (the activity waited in a queue the
    recorder did not model); clock time past the last activity (and the
    implicit join on the slowest process) is attributed as ``barrier``.
    """
    nodes = recorder.nodes
    if not nodes:
        ms = float(makespan or 0.0)
        report = CriticalPathReport(makespan=ms)
        report.components = {k: 0.0 for k in CP_KINDS}
        report.components["barrier"] = ms
        if ms > 0:
            report.segments = [CPSegment("idle", "barrier", "", 0.0, ms)]
        report.barrier_wait = dict(barrier_wait or {})
        return report

    end_node = max(nodes, key=lambda n: (n.end, n.id))
    ms = float(makespan) if makespan is not None else end_node.end
    segments: list[CPSegment] = []
    # Trailing clock advance past the last activity (silent timers, etc.)
    # is barrier wait: everyone has finished, the clock is joining.
    if ms > end_node.end:
        segments.append(CPSegment("join", "barrier", "", end_node.end, ms))

    node = end_node
    t = min(end_node.end, ms)
    guard = len(nodes) + 4
    while guard > 0:
        guard -= 1
        # The predecessor that was available latest is the previous hop.  A
        # predecessor finishing *during* this node's interval (the previous
        # occupant of a contended resource, recorded on queue-wait nodes)
        # truncates this node's on-chain share to the enabling moment — the
        # chain then descends through the resource's own task sequence
        # instead of charging the whole wait.
        best: CPNode | None = None
        best_avail = -1.0
        for pid in node.preds:
            p = nodes[pid]
            avail = min(p.end, t)
            if avail > best_avail:
                best, best_avail = p, avail
        lo = max(0.0, min(node.start, t))
        if best is not None and best_avail > lo:
            lo = best_avail
        if t > lo:
            segments.append(CPSegment(node.label, node.kind, node.resource, lo, t))
        t = lo
        if t <= 0.0:
            break
        if best is None:
            # Chain origin starts after t=0 with no recorded cause.
            segments.append(CPSegment("origin wait", "queue", node.resource, 0.0, t))
            t = 0.0
            break
        if best_avail < t:
            # The enabling activity finished before this one started and no
            # explicit wait was recorded: unmodelled queueing.
            segments.append(CPSegment("unattributed wait", "queue",
                                      node.resource, best_avail, t))
            t = best_avail
        node = best

    segments.reverse()
    components = {k: 0.0 for k in CP_KINDS}
    by_resource: dict[str, float] = {}
    by_label: dict[str, float] = {}
    for seg in segments:
        d = seg.duration
        components[seg.kind] = components.get(seg.kind, 0.0) + d
        if seg.resource:
            by_resource[seg.resource] = by_resource.get(seg.resource, 0.0) + d
        by_label[seg.label] = by_label.get(seg.label, 0.0) + d
    return CriticalPathReport(
        makespan=ms,
        segments=segments,
        components=components,
        by_resource=by_resource,
        by_label=by_label,
        barrier_wait=dict(barrier_wait or {}),
        n_nodes=len(nodes),
    )
