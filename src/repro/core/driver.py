"""The application Driver (paper §II-D, Fig 8).

Users subclass :class:`Driver`, override ``configure`` /
``create_particles`` / ``prepare`` / ``traversal`` / ``post_traversal``, and
call :meth:`Driver.run`.  Per iteration the library performs the full
pipeline the paper describes:

1. find Partition splitters via the configured decomposition type and mark
   particles;
2. build the tree (Subtrees are decomposed consistently with it);
3. the leaf-sharing step reconciles the two views (Partitions–Subtrees);
4. user ``prepare`` extracts Data (leaves → root);
5. user ``traversal`` starts visitors through the :class:`Partitions`
   facade (``start_down``, ``start_up_and_down``), which runs them on the
   configured execution backend with the iteration's recorders attached —
   so the load balancer and the observers see every pair walked there;
6. user ``post_traversal`` does non-traversal physics (collisions, SPH
   updates, integration);
7. optional measured-load re-balancing every ``lb_period`` iterations.

Everything else a run may want per iteration — communication replay under
faults, attribution, cache metrics, a status feed, checkpoints — plugs in
through :class:`IterationObserver` (see :mod:`repro.core.observers`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs import NULL_TELEMETRY, Telemetry, set_telemetry
from ..particles import ParticleSet, load_particles
from ..trees import Tree, build_tree
from ..decomp import Decomposition, decompose, get_decomposer
from ..decomp.loadbalance import LB_STRATEGIES
from .config import Configuration
from .traverser import (
    BucketLoadRecorder,
    InteractionLists,
    Recorder,
    TraversalStats,
    get_traverser,
)
from .visitor import Visitor

__all__ = ["Driver", "Partitions", "IterationReport", "IterationObserver"]


class Partitions:
    """Facade over the partition set: launches traversals for the buckets
    the partitions own (``partitions().startDown<Visitor>()`` in Fig 8)."""

    def __init__(self, driver: "Driver") -> None:
        self._driver = driver

    @property
    def decomposition(self) -> Decomposition:
        return self._driver.decomposition

    def _run(self, traverser_name: str, visitor: Visitor) -> TraversalStats:
        # the partitions own every bucket, so the targets are the engines'
        # default (all leaves), which needs no validating
        driver = self._driver
        engine = get_traverser(traverser_name)
        recorder = _MultiRecorder(driver._recorders) if driver._recorders else None
        backend = driver.exec_backend
        if backend is not None:
            stats = backend.run(
                driver.tree, engine, visitor, None, recorder,
                decomposition=driver.decomposition,
                shared_cache=driver._iteration_cache(),
            )
            driver.exec_runs.absorb(backend)
        else:
            stats = engine.traverse(driver.tree, visitor, None, recorder)
        driver.last_stats.merge(stats)
        return stats

    def start_down(self, visitor: Visitor) -> TraversalStats:
        """Top-down traversal with the configured engine (paper: startDown)."""
        return self._run(self._driver.config.traverser, visitor)

    def start_up_and_down(self, visitor: Visitor) -> TraversalStats:
        """Up-and-down traversal from every bucket (paper: startUpAndDown)."""
        return self._run("up-and-down", visitor)

    def start_dual(self, visitor: Visitor) -> TraversalStats:
        engine = get_traverser("dual-tree")
        stats = engine.traverse(self._driver.tree, visitor, None, None)
        self._driver.last_stats.merge(stats)
        return stats


class _MultiRecorder(Recorder):
    """Several recorders attached to one traversal, called in list order."""

    def __init__(self, recorders: list[Recorder]) -> None:
        self.recorders = recorders

    def on_open_pairs(self, tree, sources, targets):
        for r in self.recorders:
            r.on_open_pairs(tree, sources, targets)

    def on_node_pairs(self, tree, sources, targets):
        for r in self.recorders:
            r.on_node_pairs(tree, sources, targets)

    def on_leaf_pairs(self, tree, sources, targets):
        for r in self.recorders:
            r.on_leaf_pairs(tree, sources, targets)

    def fork(self):
        forks = [r.fork() for r in self.recorders]
        if any(f is None for f in forks):
            return None
        return _MultiRecorder(forks)

    def absorb(self, other: "_MultiRecorder") -> None:
        for mine, theirs in zip(self.recorders, other.recorders):
            mine.absorb(theirs)


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays (and containers of them)
    into plain JSON-serializable Python values."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class IterationReport:
    """What one iteration did; collected in ``Driver.reports``."""

    iteration: int
    stats: TraversalStats
    partition_loads: np.ndarray
    imbalance: float
    n_split_buckets: int
    n_shared_particles: int
    rebalanced: bool = False
    user: dict[str, Any] = field(default_factory=dict)
    #: communication replay of this iteration's traversal (set by a
    #: :class:`~repro.core.observers.CommReplay` observer); on a completed
    #: sim this is ``SimResult.to_dict()``, on retry exhaustion it is the
    #: structured ``IterationFailure.to_dict()`` with ``"failed": True``.
    comm_sim: dict[str, Any] | None = None
    #: real seconds this iteration took (the SLO layer's per-iteration
    #: latency sample)
    wall_time: float | None = None
    #: process-backend worker tree cache outcome for this iteration
    #: (attach_hits / attach_misses / hit_rate), when a process backend ran
    exec_cache: dict[str, Any] | None = None
    #: merged worker-side exec.task latency distribution for this
    #: iteration (a :meth:`Log2Histogram.to_dict`), when a parallel
    #: backend ran with telemetry on
    latency: dict[str, Any] | None = None
    #: how the iteration's backend runs executed: "parallel" when every
    #: run took the clean path, "degraded" when supervision had to
    #: intervene anywhere (retry/redispatch/worker death/quarantine),
    #: "serial"/"serial-fallback" otherwise; None without a backend
    exec_mode: str | None = None
    #: summed :meth:`~repro.exec.SupervisionStats.to_dict` over this
    #: iteration's supervised backend runs, when any were supervised
    supervision: dict[str, int] | None = None
    #: compact :meth:`~repro.obs.AttributionProfile.summary` of this
    #: iteration's traversal attribution (totals, top subtrees, cache-miss
    #: and chunk-imbalance rollups), when an
    #: :class:`~repro.core.observers.Attribution` observer is plugged in
    #: (it keeps the full profiles)
    attribution: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view (numpy arrays/scalars converted), so
        reports can feed the metrics exporter and be diffed across runs."""
        return _jsonable({**vars(self), "stats": self.stats.as_dict()})


class IterationObserver:
    """A cross-cutting per-iteration feature plugged in with
    :meth:`Driver.observe`.

    The contract mirrors :meth:`Recorder.fork` / :meth:`Recorder.absorb`:
    before the traversal the driver offers every observer the chance to
    contribute a :class:`Recorder`; after the seven phases it hands every
    observer the finished :class:`IterationReport`, which the observer may
    annotate (``comm_sim``, ``attribution``) or act on (status frame,
    checkpoint).  Observers never touch the physics: a run with any set of
    them plugged in is bit-identical to a run with none.
    """

    def recorder(self, driver: "Driver", iteration: int) -> Recorder | None:
        """A recorder to attach to this iteration's traversals, or None."""
        return None

    def report(self, driver: "Driver", report: IterationReport) -> None:
        """Called once per completed iteration, in plug-in order."""


class ExecRuns:
    """What one iteration's execution-backend runs did, folded in run order
    (an iteration may launch several traversals)."""

    def __init__(self) -> None:
        self.latency = None
        self.cache: dict[str, int] | None = None
        self.supervision: dict[str, int] | None = None
        self.mode: str | None = None
        #: one ``{chunk, lane, dur}`` sample per exec chunk task
        self.tasks: list[dict[str, Any]] = []

    def absorb(self, backend) -> None:
        """Fold in the run ``backend`` just finished."""
        if backend.last_latency is not None:
            if self.latency is None:
                self.latency = backend.last_latency.fork()
            self.latency.merge(backend.last_latency)
        cache = backend.last_cache_stats
        if cache is not None:
            mine = self.cache or {"attach_hits": 0, "attach_misses": 0}
            self.cache = {k: mine[k] + cache[k] for k in mine}
        sup = backend.last_supervision
        if sup is not None:
            mine = self.supervision or {}
            self.supervision = {**mine, **{k: mine.get(k, 0) + v for k, v in sup.items()}}
        # "degraded" is sticky across the iteration's runs
        if self.mode != "degraded":
            self.mode = backend.last_mode
        for t in backend.last_tasks or ():
            self.tasks.append({
                "chunk": int(t.get("chunk", 0)),
                "lane": int(t.get("lane", 0)),
                "dur": float(t.get("end", 0.0)) - float(t.get("start", 0.0)),
            })

    def report_fields(self) -> dict[str, Any]:
        """The :class:`IterationReport` fields these runs fill."""
        cache = self.cache
        if cache is not None:
            total = cache["attach_hits"] + cache["attach_misses"]
            cache = dict(cache, hit_rate=cache["attach_hits"] / total if total else 0.0)
        return {
            "exec_cache": cache,
            # an empty histogram is reported as count=0 (not dropped), so
            # consumers can say "n=0" instead of guessing
            "latency": None if self.latency is None else self.latency.to_dict(),
            "exec_mode": self.mode,
            "supervision": self.supervision,
        }

class Driver:
    """Base class for ParaTreeT applications."""

    def __init__(self, config: Configuration | None = None) -> None:
        self.config = config or Configuration()
        self.particles: ParticleSet | None = None
        self.tree: Tree | None = None
        self.decomposition: Decomposition | None = None
        self.last_stats = TraversalStats()
        self.reports: list[IterationReport] = []
        #: plugged-in cross-cutting features, notified in this order
        self.observers: list[IterationObserver] = []
        self.telemetry: Telemetry = NULL_TELEMETRY
        #: the last iteration's InteractionLists, when an observer that
        #: replays the traversal recorded them
        self.last_interaction_lists: InteractionLists | None = None
        #: the running (then last) iteration's execution-backend outcome
        self.exec_runs = ExecRuns()
        self._partitions = Partitions(self)
        #: recorders attached to the running iteration's traversals
        self._recorders: list[Recorder] = []
        self._pending_assignment: np.ndarray | None = None
        self._exec_backend = None
        #: per-iteration SharedTreeCache the thread backend's workers warm
        #: concurrently; rebuilt whenever the tree changes
        self._shared_cache = None
        self._shared_cache_tree: Tree | None = None
        #: named PRNG streams whose positions checkpoints capture/restore
        self._rngs: dict[str, np.random.Generator] = {}
        #: imbalance of the last pre-checkpoint iteration, restored on
        #: resume so the reactive flush check sees the same value the
        #: uninterrupted run would
        self._resumed_imbalance: float | None = None

    # -- user hooks ---------------------------------------------------------
    def configure(self, config: Configuration) -> None:
        """Mutate ``config`` before the run starts (paper Fig 8)."""

    def create_particles(self, config: Configuration) -> ParticleSet:
        """Provide the particle set when no input file is configured."""
        raise NotImplementedError(
            "set config.input_file or override create_particles()"
        )

    def check_particles(self, particles: ParticleSet) -> None:
        """Raise ``ValueError`` if this Driver's settings cannot run on
        ``particles`` (``make_driver`` asks before a fresh run starts)."""

    def prepare(self, tree: Tree) -> None:
        """Extract per-node Data after the tree build (leaves -> root)."""

    def traversal(self, iteration: int) -> None:
        """Start visitors via ``self.partitions()``."""
        raise NotImplementedError

    def post_traversal(self, iteration: int) -> None:
        """Non-traversal work: integration, collisions, output, ..."""

    def checkpoint_state(self) -> dict[str, Any]:
        """Application state to include in checkpoints, as a name->array
        dict (accelerations, accumulated logs, scalar clocks as 0-d
        arrays).  The base pipeline state — particles, decomposition
        assignment, PRNG streams — is captured by the library."""
        return {}

    def restore_state(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`checkpoint_state`: reinstall application
        state from a checkpoint (called after particles are restored)."""

    # -- library ------------------------------------------------------------
    def partitions(self) -> Partitions:
        return self._partitions

    def observe(self, observer: IterationObserver) -> IterationObserver:
        """Plug a cross-cutting feature into every subsequent iteration
        (see :class:`IterationObserver`); returns ``observer``."""
        self.observers.append(observer)
        return observer

    def enable_telemetry(
        self, telemetry: Telemetry | None = None, install_global: bool = True
    ) -> Telemetry:
        """Attach a :class:`~repro.obs.Telemetry` to this driver.

        Every subsequent :meth:`run_iteration` records nested spans for the
        seven pipeline phases and folds traversal, cache, and imbalance
        counters into the metrics registry.  ``install_global`` also makes
        it the process-wide current telemetry so spans inside ``build_tree``,
        ``decompose``, and the traversal engines nest under the phase spans.
        """
        from .observers import CacheMetrics

        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if install_global:
            set_telemetry(self.telemetry if self.telemetry.enabled else None)
        if not any(isinstance(o, CacheMetrics) for o in self.observers):
            self.observe(CacheMetrics())
        return self.telemetry

    @property
    def fault_plan(self):
        """The fault plan of the plugged-in comm replay, or None."""
        from .observers import CommReplay

        return next((o.faults for o in self.observers if isinstance(o, CommReplay)), None)

    def enable_parallel(self, backend: str = "threads", workers: int | None = None,
                        supervise: Any = True, exec_faults: Any = None,
                        **opts: Any):
        """Run every partition traversal through a ``repro.exec`` backend.

        ``backend`` is ``serial`` | ``threads`` | ``processes``; ``workers``
        defaults to the CPU count.  Results stay bit-identical to serial —
        backends chunk the target buckets along the Partitions decomposition
        and reduce in partition order.  The thread backend additionally
        exercises the :class:`~repro.cache.concurrent.SharedTreeCache`
        wait-free fill path from its workers.  Returns the backend.

        Every pool run is supervised, as with any
        :func:`~repro.exec.get_backend` backend: a long-running pipeline
        degrades, not dies, when a worker is OOM-killed or hangs.  Pass a
        :class:`~repro.exec.SupervisorConfig` as ``supervise`` to tune
        deadlines/retries.  ``exec_faults`` (an
        :class:`~repro.faults.ExecFaultPlan` or an ``--exec-faults`` spec
        string) injects real worker faults for chaos testing.
        """
        from ..exec import get_backend

        if isinstance(exec_faults, str):
            from ..faults import parse_exec_fault_spec

            exec_faults = parse_exec_fault_spec(exec_faults)
        self.disable_parallel()
        self._exec_backend = get_backend(
            backend, workers=workers, supervise=supervise,
            exec_faults=exec_faults, **opts,
        )
        return self._exec_backend

    def disable_parallel(self) -> None:
        """Shut the execution backend down and return to the serial path."""
        if self._exec_backend is not None:
            self._exec_backend.shutdown()
            self._exec_backend = None
        self._shared_cache = None
        self._shared_cache_tree = None

    @property
    def exec_backend(self):
        """The active :class:`~repro.exec.ExecutionBackend`, or None."""
        return self._exec_backend

    def _iteration_cache(self):
        """SharedTreeCache for the thread backend's workers to contend on
        (rebuilt whenever the tree changes); None for other backends."""
        backend = self._exec_backend
        if backend is None or backend.name != "threads" or self.decomposition is None:
            return None
        if self._shared_cache is None or self._shared_cache_tree is not self.tree:
            from ..cache.concurrent import SharedTreeCache

            self._shared_cache = SharedTreeCache(
                self.tree,
                self.decomposition.node_process(),
                process=0,
                nodes_per_request=self.config.nodes_per_request,
                shared_branch_levels=self.config.shared_branch_levels,
                injector=self.fault_plan,
            )
            self._shared_cache_tree = self.tree
        return self._shared_cache

    def register_rng(self, name: str, rng: np.random.Generator) -> np.random.Generator:
        """Register a PRNG stream so checkpoints capture (and restores
        reinstall) its exact position — the requirement for bit-identical
        resume of any RNG-dependent physics."""
        self._rngs[name] = rng
        return rng

    def run(self, resume_from=None) -> list[IterationReport]:
        """Run the configured iterations; pass ``resume_from`` (a
        checkpoint path or :class:`~repro.resilience.Checkpoint`) to
        continue a checkpointed run bit-identically instead of starting
        from fresh particles."""
        self.configure(self.config)
        cfg = self.config
        start = 0
        if resume_from is not None:
            from ..resilience import restore_run

            start = restore_run(self, resume_from)
        if self.particles is None:
            if cfg.input_file:
                self.particles = load_particles(cfg.input_file)
            else:
                self.particles = self.create_particles(cfg)
        try:
            for it in range(start, cfg.num_iterations):
                self.run_iteration(it)
        except BaseException as exc:
            # black-box record of the final moments (no-op unless the
            # flight recorder was armed with a dump path)
            self.telemetry.flight.maybe_crash_dump(exc)
            raise
        return self.reports

    def run_iteration(self, iteration: int) -> IterationReport:
        """One full decompose/build/traverse/post cycle."""
        cfg = self.config
        assert self.particles is not None
        tel = self.telemetry
        tracer = tel.tracer
        self.exec_runs = ExecRuns()
        t_iter = time.perf_counter()

        with tracer.span("iteration", cat="driver", iteration=iteration):
            # 1. Partition splitters + particle marking.  A flush (paper
            # §II-D-1: "ParaTreeT rebuilds and reassigns partitions during a
            # 'flush' step if load ever becomes irreparably imbalanced")
            # discards any carried-over assignment and re-decomposes from
            # scratch — periodically via ``flush_period`` and reactively when
            # the previous iteration's imbalance exceeded the threshold in
            # ``config.extra["flush_imbalance"]``.
            with tracer.span("splitters", cat="driver.phase"):
                flush = (
                    cfg.flush_period > 0
                    and iteration > 0
                    and iteration % cfg.flush_period == 0
                )
                threshold = cfg.extra.get("flush_imbalance")
                if threshold is not None:
                    # On a resumed run the previous iteration's imbalance
                    # comes from the checkpoint, so the reactive check makes
                    # the same decision the uninterrupted run would.
                    prev = (
                        self.reports[-1].imbalance if self.reports
                        else self._resumed_imbalance
                    )
                    if prev is not None:
                        flush = flush or prev > float(threshold)
                if flush:
                    self._pending_assignment = None
                if self._pending_assignment is not None:
                    part_ids = self._pending_assignment
                    self._pending_assignment = None
                    rebalanced = True
                else:
                    decomposer = get_decomposer(cfg.decomp_type)
                    part_ids = decomposer.assign(self.particles, cfg.num_partitions)
                    rebalanced = False

            # 2. Tree build (particles get permuted into tree order).  part_ids
            # are indexed by the pre-build ordering; recover the build's
            # permutation from orig_index — unique labels, but not necessarily
            # contiguous (merging/removal keeps original labels).
            with tracer.span("tree_build", cat="driver.phase"):
                prev_labels = self.particles.orig_index
                sorter = np.argsort(prev_labels)
                self.tree = build_tree(self.particles, cfg.tree_build_config())
                self.particles = self.tree.particles
                build_order = sorter[
                    np.searchsorted(prev_labels, self.particles.orig_index, sorter=sorter)
                ]  # tree position -> pre-build position
                tree_order_parts = part_ids[build_order]

            # 3. Partitions-Subtrees decomposition + leaf sharing.
            with tracer.span("leaf_sharing", cat="driver.phase"):
                self.decomposition = decompose(
                    self.tree, tree_order_parts, cfg.num_subtrees,
                    n_processes=cfg.num_partitions,
                )

            # 4. Data extraction.
            with tracer.span("prepare", cat="driver.phase"):
                self.prepare(self.tree)

            # 5. Traversal, recorded by the load balancer (when it is due)
            # and by whatever the observers contribute.
            with tracer.span("traversal", cat="driver.phase"):
                self.last_stats = TraversalStats()
                want_lb = cfg.lb_period > 0 and (iteration + 1) % cfg.lb_period == 0
                load = BucketLoadRecorder(self.tree) if want_lb else None
                self.last_interaction_lists = None
                offered = [load, *(o.recorder(self, iteration) for o in self.observers)]
                self._recorders = [r for r in offered if r is not None]
                self.traversal(iteration)

            # 6. Post-traversal physics.
            with tracer.span("post_traversal", cat="driver.phase"):
                self.post_traversal(iteration)
            self._recorders = []

            # 7. Measured-load re-balancing.
            with tracer.span("rebalance", cat="driver.phase"):
                loads = self.decomposition.partition_loads()
                if load is not None:
                    self._pending_assignment = LB_STRATEGIES[cfg.lb_strategy](
                        self.particles, load.per_particle_load(self.tree),
                        cfg.num_partitions,
                    )

            report = IterationReport(
                iteration=iteration,
                stats=self.last_stats,
                partition_loads=loads,
                imbalance=float(loads.max() / loads.mean()) if loads.sum() else 1.0,
                n_split_buckets=self.decomposition.n_split_buckets,
                n_shared_particles=self.decomposition.n_shared_particles,
                rebalanced=rebalanced,
                wall_time=time.perf_counter() - t_iter,
                **self.exec_runs.report_fields(),
            )
            self.reports.append(report)
            if tel.enabled:
                tel.metrics.absorb_iteration_report(report)
                tel.metrics.latency("driver.iteration.latency").observe(report.wall_time)
            for observer in self.observers:
                observer.report(self, report)
        return report
