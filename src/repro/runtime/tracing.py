"""Utilisation tracing for the DES (paper Fig 9 / *Projections*).

Every completed worker task records a ``(process, worker, start, end,
activity)`` interval.  :func:`utilization_profile` bins those intervals into
a time-resolved, per-activity utilisation fraction — the same view the
paper's Fig 9 shows from Charm++ Projections (local traversals, cache
requests, cache insertions, traversal resumptions, idle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ActivityTrace", "utilization_profile", "activity_totals", "barrier_waits"]


@dataclass
class ActivityTrace:
    """Flat interval log; cheap to append, vectorised to analyse."""

    intervals: list[tuple[int, int, float, float, str]] = field(default_factory=list)

    def record(self, process: int, worker: int, start: float, end: float, label: str) -> None:
        if end < start:
            raise ValueError("interval ends before it starts")
        self.intervals.append((process, worker, start, end, label))

    def span(self) -> tuple[float, float]:
        if not self.intervals:
            return (0.0, 0.0)
        return (
            min(iv[2] for iv in self.intervals),
            max(iv[3] for iv in self.intervals),
        )


def activity_totals(trace: ActivityTrace) -> dict[str, float]:
    """Total busy seconds per activity label."""
    out: dict[str, float] = {}
    for _, _, start, end, label in trace.intervals:
        out[label] = out.get(label, 0.0) + (end - start)
    return out


def barrier_waits(trace: ActivityTrace, makespan: float) -> dict[int, float]:
    """End-of-iteration wait per simulated process.

    The iteration time is the slowest process's finish time; every other
    process idles from its own last task until then (the implicit barrier
    before the next iteration).  This is the "barrier wait" component the
    critical-path report carries alongside its on-chain attribution.
    """
    last_end: dict[int, float] = {}
    for process, _worker, _start, end, _label in trace.intervals:
        if end > last_end.get(process, 0.0):
            last_end[process] = end
    return {int(p): float(max(makespan - e, 0.0))
            for p, e in sorted(last_end.items())}


def utilization_profile(
    trace: ActivityTrace,
    n_workers_total: int,
    n_bins: int = 50,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Time-binned utilisation fractions per activity.

    Returns ``(bin_edges, {label: fraction_of_workers_busy_per_bin})``.
    The sum over labels in a bin is total utilisation; 1 − sum is idle.
    """
    t0, t1 = trace.span()
    if t1 <= t0:
        return np.zeros(n_bins + 1), {}
    edges = np.linspace(t0, t1, n_bins + 1)
    width = edges[1] - edges[0]
    starts = np.array([iv[2] for iv in trace.intervals])
    ends = np.array([iv[3] for iv in trace.intervals])
    labels = np.array([iv[4] for iv in trace.intervals])
    # Overlap of every interval with every bin in one broadcast:
    # max(0, min(end, right_edge) - max(start, left_edge)) -> (n_iv, n_bins).
    overlap = np.minimum(ends[:, None], edges[None, 1:]) - np.maximum(
        starts[:, None], edges[None, :-1]
    )
    np.clip(overlap, 0.0, None, out=overlap)
    denom = width * n_workers_total
    out: dict[str, np.ndarray] = {}
    for label in np.unique(labels):
        out[str(label)] = overlap[labels == label].sum(axis=0) / denom
    return edges, out
