"""Open-loop load bench and the DES-vs-real accounting comparison.

``run_trace`` replays a seeded :class:`~repro.serve.traffic.TrafficTrace`
against a live :class:`~repro.serve.service.QueryService` — paced (real
wall-clock arrivals, the ``repro serve --bench`` path, gated by the
PR 6 SLO layer) or unpaced (submit in trace order as fast as possible;
admission decisions are still trace-deterministic because they key off
each query's carried ``t``).  ``accounting_delta`` then compares the
real counters against a :class:`~repro.serve.desmodel.ServeSimResult`
for the same trace — the two legs of the ISSUE 9 validation.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from ..obs.slo import SLOReport, SLOSpec, evaluate_slo
from .protocol import (
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_SHED,
    Response,
)
from .service import QueryService
from .traffic import TrafficTrace


@dataclass
class BenchResult:
    """One replay: per-status counts, admitted-latency tail, accounting."""

    statuses: dict[str, int]
    counters: dict[str, int]
    accounting: dict[str, int]
    latencies: list[float]            # served queries only, arrival order
    retry_after_present: int = 0      # shed responses carrying a hint
    retry_after_missing: int = 0      # shed responses without one (draining)
    wall_s: float = 0.0
    slo: SLOReport | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def served(self) -> int:
        return self.statuses.get(STATUS_OK, 0)

    def quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "statuses": self.statuses,
            "counters": self.counters,
            "wall_s": round(self.wall_s, 3),
            "p50_s": round(self.quantile(0.5), 6),
            "p99_s": round(self.quantile(0.99), 6),
            "retry_after_present": self.retry_after_present,
            "retry_after_missing": self.retry_after_missing,
            **self.meta,
        }
        if self.slo is not None:
            doc["slo"] = self.slo.to_dict()
        return doc


def _tally(responses: list[Response]) -> tuple[dict[str, int], list[float], int, int]:
    statuses = {STATUS_OK: 0, STATUS_SHED: 0, STATUS_EXPIRED: 0, STATUS_ERROR: 0}
    latencies: list[float] = []
    with_hint = without_hint = 0
    for r in responses:
        statuses[r.status] = statuses.get(r.status, 0) + 1
        if r.status == STATUS_OK and r.queue_s is not None:
            latencies.append(r.queue_s + (r.service_s or 0.0))
        elif r.status == STATUS_SHED:
            if r.retry_after is not None:
                with_hint += 1
            else:
                without_hint += 1
    return statuses, latencies, with_hint, without_hint


async def run_trace(service: QueryService, trace: TrafficTrace,
                    pace: bool = True, slo: SLOSpec | None = None,
                    speed: float = 1.0) -> BenchResult:
    """Replay ``trace``; returns once every query has a final response."""
    await service.start()
    t0 = service.clock()
    tasks: list[asyncio.Task[Response]] = []
    if pace:
        for query in trace.queries:
            delay = query.t / speed - (service.clock() - t0)
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(service.submit(query)))
    else:
        # unpaced: offers happen synchronously, in trace order
        tasks = [asyncio.ensure_future(service.submit(q))
                 for q in trace.queries]
    responses = list(await asyncio.gather(*tasks))
    wall = service.clock() - t0

    statuses, latencies, with_hint, without_hint = _tally(responses)
    counters = service.admission.counters
    report = evaluate_slo(slo, latencies) if slo is not None else None
    return BenchResult(
        statuses=statuses, counters=counters.to_dict(),
        accounting=counters.accounting_key(), latencies=latencies,
        retry_after_present=with_hint, retry_after_missing=without_hint,
        wall_s=wall, slo=report,
        meta={"n_queries": len(trace), "paced": pace, "seed": trace.seed},
    )


def accounting_delta(real: dict[str, int], sim: dict[str, int]) -> dict[str, int]:
    """Per-key ``real - sim`` over the agreement subset; {} means agree."""
    keys = set(real) | set(sim)
    return {k: real.get(k, 0) - sim.get(k, 0)
            for k in sorted(keys) if real.get(k, 0) != sim.get(k, 0)}


def calibrate_capacity(service: QueryService, probe: TrafficTrace,
                       repeats: int = 3) -> float:
    """Measured serving capacity in queries/s (drives the overload knob).

    Times the executor directly on a batch-sized probe — no admission,
    no queueing — so the bench can offer a controlled multiple of what
    the server can actually sustain.
    """
    batch = [q.to_wire() for q in
             probe.queries[:service.batcher.policy.batch_max]] or None
    if not batch:
        raise ValueError("probe trace is empty")
    best = float("inf")
    for _ in range(repeats):
        t0 = service.clock()
        service.executor.execute(batch)
        best = min(best, service.clock() - t0)
    return len(batch) / max(best, 1e-9)
