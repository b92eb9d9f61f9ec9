"""The cross-cutting features of a run, as :class:`IterationObserver` plug-ins.

``driver.observe(CommReplay(faults="drop=0.05"))`` and friends: each
observer may contribute a :class:`~repro.core.traverser.Recorder` to an
iteration's traversals and receives the finished
:class:`~repro.core.driver.IterationReport`.  The fifth built-in observer,
:class:`~repro.resilience.CheckpointWriter`, lives with the checkpoint
format.

Three of the observers here *replay* the recorded traversal (through the
DES, the miss-attribution model, the software-cache model).  They share
one :class:`ReplayLists` per iteration — published as
``driver.last_interaction_lists`` — so however many are plugged in the
interaction lists are recorded once and the fetch groups assigned once.
"""

from __future__ import annotations

from typing import Any

from .driver import Driver, IterationObserver, IterationReport, _MultiRecorder
from .traverser import InteractionLists, Recorder

__all__ = ["ReplayLists", "CommReplay", "Attribution", "CacheMetrics", "StatusFeed"]


class ReplayLists(InteractionLists):
    """One iteration's interaction lists plus the fetch groups of that
    iteration's Partitions–Subtrees placement (one simulated process per
    partition), assigned on first use."""

    _groups = None

    def fetch_groups(self, driver: Driver):
        if self._groups is None:
            from ..cache.stats import assign_fetch_groups

            self._groups = assign_fetch_groups(
                driver.tree, driver.decomposition,
                nodes_per_request=driver.config.nodes_per_request,
                shared_branch_levels=driver.config.shared_branch_levels,
            )
        return self._groups


class _Replaying(IterationObserver):
    """An observer that replays the iteration's recorded traversal."""

    def recorder(self, driver: Driver, iteration: int) -> Recorder | None:
        # the first replaying observer asked contributes the lists; the
        # others find them on the driver
        if driver.last_interaction_lists is not None:
            return None
        driver.last_interaction_lists = ReplayLists()
        return driver.last_interaction_lists

    @staticmethod
    def lists(driver: Driver) -> ReplayLists | None:
        """The lists to replay; None when no traversal went through
        ``partitions()`` (nothing distributed happened)."""
        lists = driver.last_interaction_lists
        if lists is None or not lists["open"] or driver.decomposition is None:
            return None
        return lists


class CommReplay(_Replaying):
    """Replays each iteration's traversal through the DES communication
    model (one simulated process per partition) and stores the outcome in
    :attr:`IterationReport.comm_sim`.

    ``faults`` (a :class:`~repro.faults.FaultPlan` or ``--faults`` spec
    string) injects drops/duplicates/stragglers/crashes into the replay:
    the outcome then carries the drop/retry/timeout counters, or — when
    retries are exhausted — the structured failure with ``"failed": True``
    instead of raising.  ``critical_path`` records the longest dependency
    chain over {compute, cache-miss latency, queueing, barrier wait} under
    ``comm_sim["critical_path"]``.  The real traversal results are never
    perturbed: faults degrade the simulated schedule, not the physics.
    """

    def __init__(self, faults=None, critical_path: bool = False) -> None:
        if isinstance(faults, str):
            from ..faults import parse_fault_spec

            faults = parse_fault_spec(faults)
        self.faults = faults
        self.critical_path = bool(critical_path)
        #: the last completed replay's ``SimResult`` (``repro explain``
        #: runs its what-if experiments over this event graph)
        self.result = None

    def report(self, driver: Driver, report: IterationReport) -> None:
        lists = self.lists(driver)
        if lists is None:
            return
        from ..faults import IterationFailure
        from ..runtime import simulate_traversal, workload_from_traversal

        tel = driver.telemetry
        with tel.tracer.span("comm_sim", cat="driver.phase"):
            workload = workload_from_traversal(
                driver.tree, driver.decomposition, lists,
                groups=lists.fetch_groups(driver),
            )
            try:
                self.result = simulate_traversal(
                    workload,
                    n_processes=driver.config.num_partitions,
                    # the simulated machine walks the transposed way (Table II
                    # cost multiplier 1) whichever engine recorded the lists;
                    # a bucket's requests go out in the order it recorded them
                    traversal_style="transposed",
                    faults=self.faults,
                    telemetry=tel if tel.enabled else None,
                    critical_path=self.critical_path,
                    collect_trace=self.critical_path,
                )
            except IterationFailure as exc:
                report.comm_sim = {**exc.to_dict(), "failed": True}
                tel.metrics.absorb_fault_counters(exc.counters, iteration=report.iteration)
                tel.metrics.counter(
                    "faults.iteration_failures", iteration=report.iteration
                ).inc()
                return
        report.comm_sim = {**self.result.to_dict(), "failed": False}


class Attribution(_Replaying):
    """Per-node/per-bucket traversal attribution (``repro explain``).

    Attaches an :class:`~repro.obs.AttributionRecorder` to every traversal
    — flat integer counter arrays indexed by tree-node id (visits, MAC
    accepts, kernel pairs, a deterministic ns cost estimate), merged across
    exec workers in chunk order so the arrays are bit-identical for any
    backend × worker count.  The full
    :class:`~repro.obs.AttributionProfile` of each iteration (with
    cache-miss and chunk-imbalance context) is appended to
    :attr:`profiles`; a compact summary lands in
    :attr:`IterationReport.attribution`.
    """

    def __init__(self) -> None:
        self.profiles: list[Any] = []
        self._counters = None

    def recorder(self, driver: Driver, iteration: int) -> Recorder:
        from ..obs import AttributionRecorder

        self._counters = AttributionRecorder(driver.tree.n_nodes)
        lists = super().recorder(driver, iteration)
        return self._counters if lists is None else _MultiRecorder([self._counters, lists])

    def report(self, driver: Driver, report: IterationReport) -> None:
        from ..obs import AttributionProfile

        profile = AttributionProfile.from_recorder(
            self._counters, iteration=report.iteration, chunks=driver.exec_runs.tasks,
        )
        lists = self.lists(driver)
        if lists is not None:
            from ..cache.stats import miss_attribution

            profile.cache = miss_attribution(
                driver.tree, lists, driver.decomposition, lists.fetch_groups(driver),
                n_processes=driver.config.num_partitions,
            )
        self.profiles.append(profile)
        report.attribution = profile.summary(driver.tree)


class CacheMetrics(_Replaying):
    """Software-cache counters for the iteration's traversals, folded into
    the driver's telemetry: fetch groups touched, split local/remote,
    through the WaitFree cache model.  Idle while telemetry is disabled;
    :meth:`Driver.enable_telemetry` plugs it in."""

    def recorder(self, driver: Driver, iteration: int) -> Recorder | None:
        return super().recorder(driver, iteration) if driver.telemetry.enabled else None

    def report(self, driver: Driver, report: IterationReport) -> None:
        tel = driver.telemetry
        lists = self.lists(driver) if tel.enabled else None
        if lists is None:
            return
        from ..cache.models import WAITFREE
        from ..cache.stats import fetch_statistics

        with tel.span("cache_stats", cat="obs"):
            stats = fetch_statistics(
                driver.tree, lists, driver.decomposition, lists.fetch_groups(driver),
                n_processes=driver.config.num_partitions, cache_model=WAITFREE,
            )
        tel.metrics.absorb_fetch_stats(stats, iteration=report.iteration)


class StatusFeed(IterationObserver):
    """Feeds one ``repro.status/1`` snapshot per completed iteration to
    ``consumer.update`` — a :class:`~repro.obs.Dashboard` (``repro top``)
    or a :class:`~repro.obs.StatusWriter` (``--status-file``)."""

    def __init__(self, consumer) -> None:
        self.consumer = consumer
        self._events_seen = 0

    def report(self, driver: Driver, report: IterationReport) -> None:
        # phase spans closed since the previous snapshot are this iteration's
        events = driver.telemetry.tracer.events
        phases: dict[str, float] = {}
        for ev in events[self._events_seen:]:
            if ev.get("cat") == "driver.phase":
                phases[ev["name"]] = phases.get(ev["name"], 0.0) + ev["dur"] / 1e6
        self._events_seen = len(events)
        by_lane: dict[int, dict[str, Any]] = {}
        for task in driver.exec_runs.tasks:
            slot = by_lane.setdefault(task["lane"], {"busy": 0.0, "tasks": 0})
            slot["busy"] += task["dur"]
            slot["tasks"] += 1
        backend = driver.exec_backend
        n = len(driver.particles)
        latency = report.latency or {}
        self.consumer.update({
            "pipeline": type(driver).__name__,
            "iteration": report.iteration,
            "n_particles": n,
            "backend": backend.name if backend is not None else "serial",
            "workers": backend.workers if backend is not None else 1,
            "wall_time": report.wall_time,
            "throughput": n / report.wall_time if report.wall_time else None,
            "imbalance": report.imbalance,
            "phases": phases,
            "worker_lanes": [{"lane": lane, **slot}
                             for lane, slot in sorted(by_lane.items())],
            "cache": report.exec_cache,
            "latency": latency.get("quantiles") or None,
            "latency_count": latency.get("count"),
            "mode": report.exec_mode,
            "degraded": report.exec_mode == "degraded",
            "supervision": report.supervision,
        })
