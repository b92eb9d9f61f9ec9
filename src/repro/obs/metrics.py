"""Metrics registry: counters, gauges, and log₂ latency histograms with labels.

One :class:`MetricsRegistry` per telemetry session.  Instruments are
identified by ``(name, labels)`` — asking for the same pair twice returns
the same instrument, so call sites can use
``registry.counter("cache.hits", model="WaitFree").inc()`` without holding
references.  ``absorb_*`` helpers fold the repo's pre-existing stats
objects (:class:`~repro.core.traverser.TraversalStats`,
:class:`~repro.cache.stats.FetchStats`, memsim
:class:`~repro.memsim.cache.CacheStats`, and
:class:`~repro.core.driver.IterationReport`) into the registry so one
exporter sees every counter the paper tabulates (Table II, cache
hit/request counts, per-iteration imbalance).
"""

from __future__ import annotations

from typing import Any

from .flight import null_twin
from .hist import Log2Histogram

__all__ = [
    "Counter",
    "Gauge",
    "Latency",
    "MetricsRegistry",
    "NULL_METRICS",
]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-written value (can move both ways)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), "value": self.value}


class Latency:
    """Mergeable log₂-bucketed latency distribution with quantiles.

    A thin instrument wrapper around :class:`~repro.obs.hist.Log2Histogram`;
    worker-side histograms (from :meth:`Log2Histogram.fork`) merge back
    deterministically via :meth:`merge`, which is how the parallel exec backends reduce
    per-worker timings recorded on worker clocks."""

    kind = "latency"
    __slots__ = ("name", "labels", "hist")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.hist = Log2Histogram()

    def observe(self, value: float) -> None:
        self.hist.observe(value)

    def observe_many(self, values) -> None:
        self.hist.observe_many(values)

    def merge(self, other: Log2Histogram) -> None:
        self.hist.merge(other.hist if isinstance(other, Latency) else other)

    def quantile(self, q: float) -> float:
        return self.hist.quantile(q)

    @property
    def count(self) -> int:
        return self.hist.count

    def snapshot(self) -> dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), **self.hist.to_dict()}


class MetricsRegistry:
    """Get-or-create store of labelled instruments."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Counter | Gauge | Latency] = {}
        self._kinds: dict[str, str] = {}

    def _get(self, cls, name: str, labels: dict[str, Any]):
        kind = self._kinds.setdefault(name, cls.kind)
        if kind != cls.kind:
            raise TypeError(f"metric {name!r} already registered as a {kind}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1])
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def latency(self, name: str, **labels: Any) -> Latency:
        return self._get(Latency, name, labels)

    # -- inspection ---------------------------------------------------------
    def collect(self) -> list[dict[str, Any]]:
        """Stable-ordered snapshots of every instrument."""
        return [m.snapshot() for _, m in sorted(self._metrics.items())]

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge (KeyError when absent)."""
        metric = self._metrics[(name, _label_key(labels))]
        return metric.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across all label sets."""
        return sum(
            m.value for (n, _), m in self._metrics.items()
            if n == name and not isinstance(m, Latency)
        )

    def __len__(self) -> int:
        return len(self._metrics)

    # -- absorb helpers -----------------------------------------------------
    def absorb_traversal_stats(self, stats, **labels: Any) -> None:
        """Fold a :class:`TraversalStats` into ``traversal.*`` counters."""
        for field, value in stats.as_dict().items():
            self.counter(f"traversal.{field}", **labels).inc(value)

    def absorb_fetch_stats(self, fs, **labels: Any) -> None:
        """Fold a :class:`FetchStats` into ``cache.*`` counters (summed over
        simulated processes): requests sent, unique fetches (= cold misses),
        cache hits, and bytes received."""
        labels.setdefault("model", fs.cache_model)
        self.counter("cache.requests", **labels).inc(fs.total_requests)
        self.counter("cache.misses", **labels).inc(float(fs.unique_fetches.sum()))
        self.counter("cache.hits", **labels).inc(fs.total_hits)
        self.counter("cache.bytes", **labels).inc(fs.total_bytes)
        self.gauge("cache.duplication_factor", **labels).set(fs.duplication_factor)

    def absorb_cache_stats(self, stats, level: str, **labels: Any) -> None:
        """Fold a memsim :class:`CacheStats` (one hardware cache level) into
        ``memsim.*`` counters."""
        labels["level"] = level
        self.counter("memsim.load_accesses", **labels).inc(stats.load_accesses)
        self.counter("memsim.load_misses", **labels).inc(stats.load_misses)
        self.counter("memsim.load_hits", **labels).inc(
            stats.load_accesses - stats.load_misses
        )
        self.counter("memsim.store_accesses", **labels).inc(stats.store_accesses)
        self.counter("memsim.store_misses", **labels).inc(stats.store_misses)

    def absorb_fault_counters(self, counters, **labels: Any) -> None:
        """Fold a :class:`~repro.faults.FaultCounters` into ``faults.*``
        counters (drops, duplicates, fill failures, retries, timeouts,
        crash restarts, stragglers)."""
        for name, value in counters.to_dict().items():
            self.counter(f"faults.{name}", **labels).inc(value)

    def absorb_recovery_report(self, report, **labels: Any) -> None:
        """Fold a :class:`~repro.resilience.RecoveryReport` into
        ``recovery.*`` instruments: crash count, state lost, bytes
        refetched from the buddy, and total simulated recovery time."""
        self.counter("recovery.crashes", **labels).inc(report.n_crashes)
        self.counter("recovery.lost_cache_lines", **labels).inc(report.lost_cache_lines)
        self.counter("recovery.lost_bytes", **labels).inc(report.lost_bytes)
        self.counter("recovery.bytes_refetched", **labels).inc(report.bytes_refetched)
        self.counter("recovery.tasks_reissued", **labels).inc(report.tasks_reissued)
        self.gauge("recovery.time", **labels).set(report.recovery_time)

    def absorb_iteration_report(self, report) -> None:
        """Fold one :class:`IterationReport` into driver gauges/counters."""
        it = str(report.iteration)
        self.counter("driver.iterations").inc()
        self.gauge("driver.imbalance", iteration=it).set(report.imbalance)
        self.counter("driver.split_buckets").inc(report.n_split_buckets)
        self.counter("driver.shared_particles").inc(report.n_shared_particles)
        if report.rebalanced:
            self.counter("driver.rebalances").inc()
        self.latency("driver.partition_load").observe_many(report.partition_loads)
        self.absorb_traversal_stats(report.stats, iteration=it)


#: the one instrument every factory of :data:`NULL_METRICS` returns
_NULL_INSTRUMENT = null_twin(Counter, Gauge, Latency)
NULL_METRICS = null_twin(MetricsRegistry, counter=_NULL_INSTRUMENT,
                         gauge=_NULL_INSTRUMENT, latency=_NULL_INSTRUMENT)
