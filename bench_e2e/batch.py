"""The five batch workloads.

Untraced, a workload times the product entry point (``Driver.run_iteration``;
for ``rebuild_300k`` the build cycle itself).  Traced, every repetition is
a pair: that same entry point, untraced, as the in-run reference, then the
same step of a hand-composed pipeline built only from public calls, with a
span around each call into a layer.  The two must produce bit-identical
output on the same seed or the run aborts; pairing them keeps their ratio
steady while the host drifts.  One-off probes (other engines, the other
builder, other backends) run last, outside the timed repetitions.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracles
from harness import (MIN_REPS, NO_SPANS, Run, SameProgramError, digest,
                     peak_rss_mb, timed_reps)
from repro.apps.collision import PlanetesimalDriver, detect_collisions
from repro.apps.gravity import (GravityDriver, GravityVisitor,
                                compute_centroid_arrays, drift, kick,
                                kick_drift_kick_half)
from repro.apps.sph import (SPHDriver, compute_density_knn,
                            compute_pressure_forces, equation_of_state)
from repro.cache.concurrent import SharedTreeCache
from repro.core import Configuration, get_traverser
from repro.decomp import decompose, get_decomposer
from repro.exec import SerialBackend, get_backend
from repro.geometry import morton_keys
from repro.particles import (DiskParams, clustered_clumps, keplerian_disk,
                             uniform_cube)
from repro.particles.generators import G_AU_MSUN_YR
from repro.trees import TreeType, build_tree
from stats import summary

COVERAGE_RANGE = (0.90, 1.10)
INTERACTION_KEYS = ("opens", "node_interactions", "leaf_interactions",
                    "pp_interactions", "pn_interactions")


# -- pieces shared by the hand-composed pipelines ---------------------------

def front(rec, particles, cfg: Configuration):
    """Steps 1-3 of ``Driver.run_iteration``: splitters, tree build,
    Partitions-Subtrees decomposition."""
    with rec.span("decomp.assign"):
        part_ids = get_decomposer(cfg.decomp_type).assign(particles, cfg.num_partitions)
    labels = particles.orig_index
    with rec.span("trees.build"):
        tree = build_tree(particles, cfg.tree_build_config())
    with rec.span("decomp.decompose"):
        # decompose() wants the partition ids in tree order; carrying them
        # through the build's permutation is part of calling it
        sorter = np.argsort(labels)
        order = sorter[np.searchsorted(labels, tree.particles.orig_index, sorter=sorter)]
        dec = decompose(tree, part_ids[order], cfg.num_subtrees,
                        n_processes=cfg.num_partitions)
    return tree, dec


def gravity_visitor(rec, tree, theta, G, softening) -> GravityVisitor:
    with rec.span("core.summarise"):
        arrays = compute_centroid_arrays(tree, theta=theta)
        return GravityVisitor(tree, arrays, G=G, softening=softening)


def interaction_counts(stats) -> dict:
    counts = stats.as_dict()
    return {key: counts[key] for key in INTERACTION_KEYS}


def structure_counts(run: Run, tree, dec, stats) -> None:
    """Exact counts of the warm-up iteration: functions of the seed only."""
    loads = dec.partition_loads()
    run.metrics.update({
        "trees.n_nodes": tree.n_nodes, "trees.n_leaves": tree.n_leaves,
        "trees.depth": tree.depth,
        "decomp.split_buckets": dec.n_split_buckets,
        "decomp.shared_particles": dec.n_shared_particles,
        "decomp.imbalance": float(loads.max() / loads.mean()),
    })
    if stats is not None:
        run.metrics.update({f"core.{k}": v for k, v in interaction_counts(stats).items()})


def same_program(run: Run, step: int, product, traced) -> None:
    if product != traced:
        raise SameProgramError(
            f"{run.workload}: step {step} of the hand-composed pipeline differs "
            f"from the product entry point: {traced} != {product}")


def measure(run: Run, product_step, hand_step=None) -> list[float]:
    """Warm-up, end of set-up, then the timed repetitions -> wall time of
    each product repetition.  ``product_step(k)`` and ``hand_step()`` return
    their step's output; traced, each repetition is the pair of them."""
    first = product_step(0)
    run.setup_done()
    run.detail["output_digest"] = first[0]
    if not run.trace:
        times = timed_reps(lambda k: product_step(k + 1), run.seconds, 1)
        run.time("iter_s", times)
        run.metrics["peak_rss_mb"] = peak_rss_mb()
        return times

    rec = run.rec

    def traced():
        with rec.span("iteration"):
            return hand_step()

    same_program(run, 0, first, traced())
    times: list[float] = []
    spent = 0.0
    while len(times) < MIN_REPS or spent < run.seconds:
        rec.rep = len(times)
        t = time.perf_counter()
        product = product_step(len(times) + 1)
        times.append(time.perf_counter() - t)
        same_program(run, len(times), product, traced())
        spent += time.perf_counter() - t
    rec.rep = -1
    return times


def check_coverage(run: Run, coverage: float) -> None:
    """The layer spans must tile the untraced time.  Not gated in smoke
    mode: millisecond iterations are mostly pool and cache warm-up."""
    lo, hi = COVERAGE_RANGE
    if not run.smoke:
        run.check(1, [] if lo <= coverage <= hi else
                  [f"bench.span_coverage {coverage:.3f} outside [{lo}, {hi}]"])


def layer_budget(run: Run, product: list[float]) -> None:
    """Outside-in budget: the layer spans of each traced iteration against
    the untraced product iteration it was paired with."""
    durations, sums = run.rec.layer_sums("iteration")
    coverage = statistics.median(s / p for s, p in zip(sums, product))
    run.metrics.update({
        "bench.iter_untraced_s": statistics.median(product),
        "bench.span_coverage": coverage,
        "bench.trace_overhead_frac": statistics.median(
            d / p for d, p in zip(durations, product)) - 1.0,
        "core.driver_overhead_s": statistics.median(
            p - s for s, p in zip(sums, product)),
    })
    check_coverage(run, coverage)
    for metric, span in (
            ("decomp.assign_s", "decomp.assign"), ("trees.build_s", "trees.build"),
            ("decomp.decompose_s", "decomp.decompose"),
            ("core.summarise_s", "core.summarise"), ("core.traverse_s", "core.traverse"),
            ("apps.gravity.integrate_s", "apps.gravity.integrate"),
            ("particles.scatter_s", "particles.scatter"),
            ("apps.knn.search_s", "apps.knn.search"),
            ("apps.sph.density_s", "apps.sph.density"),
            ("apps.sph.forces_s", "apps.sph.forces"),
            ("apps.collision.detect_s", "apps.collision.detect"),
            ("exec.serial.run_s", "exec.serial.run"),
            ("exec.processes_w2.run_s", "exec.processes_w2.run")):
        run.span_metric(metric, span)
    run.probe_metric("particles.generate_s", "particles.generate")


# -- gravity_clumps / gravity_clumps_w2 --------------------------------------

def gravity_clumps(run: Run) -> None:
    _gravity(run, workers=0)


def gravity_clumps_w2(run: Run) -> None:
    """Every step is computed twice, by a serial driver and by its twin on
    two process workers, and the pair is the timed repetition: the
    processes leg alone swings with how the host places the two vCPUs
    (1.25-1.9 s between identical runs), more than any bound could gate."""
    _gravity(run, workers=2)


def _gravity(run: Run, workers: int) -> None:
    rec = run.rec or NO_SPANS
    with rec.span("particles.generate"):
        start = clustered_clumps(run.size(20_000, 1_500), seed=run.seed)
    run.detail["input_digest"] = digest(start.position)
    apps = [GravityDriver(Configuration(), theta=0.7, softening=1e-3, dt=1e-3)
            for _ in range(2 if workers else 1)]
    for twin in apps:
        twin.particles = start.copy()
    app = apps[-1]
    first_accel = []
    differing = []

    def product_step(k):
        outs = []
        for twin in apps:
            report = twin.run_iteration(k)
            accel = twin.particles.scatter_to_input_order(twin.accelerations)
            outs.append((digest(accel, twin.particles.position),
                         interaction_counts(report.stats)))
        if k == 0:
            first_accel.append(accel)
        if outs[0] != outs[-1]:       # accelerations, positions and counts, bitwise
            differing.append(k)
        return outs[-1]

    # traced, the serial twin goes through get_backend("serial").run when it
    # has a parallel twin, so both legs are timed at the same exec boundary
    hands = []
    if run.trace:
        hands.append(_HandGravity(rec, app, start.copy(), "serial" if workers else None, 1))
        if workers:
            hands.append(_HandGravity(rec, app, start.copy(), "processes", workers))

    def hand_step():
        outs = [hand.iteration() for hand in hands]
        if outs[0] != outs[-1]:
            raise SameProgramError(f"{run.workload}: hand-composed legs differ")
        return outs[-1]

    try:
        if workers:
            app.enable_parallel("processes", workers=workers)
        product = measure(run, product_step, hand_step)
        run.check(len(product) + 1, [] if np.isfinite(app.accelerations).all()
                  else ["non-finite accelerations"])
        if workers:
            run.check(len(product) + 1,
                      [f"processes w{workers} is not bit-identical to serial at step {k}"
                       for k in differing])
            legs = [[r.wall_time for r in twin.reports[1:]] for twin in apps]
            run.detail["legs"] = {"serial": summary(legs[0]),
                                  "processes": summary(legs[1])}
        if run.oracle:
            sample = oracles.sample_indices(len(start), 512, run.seed)
            med, p99, misses = oracles.check_gravity(
                start.position, start.mass, first_accel[0], sample, app.G, app.softening)
            run.check(2, misses)
            if run.trace:
                run.metrics.update({"accuracy_err_p50": med, "accuracy_err_p99": p99})
        if not run.trace:
            return
        structure_counts(run, *hands[-1].first)
        layer_budget(run, product)
        traverse_s = run.metrics.get("core.traverse_s") or run.metrics["exec.serial.run_s"]
        run.metrics["core.interactions_per_s"] = (
            run.metrics["core.pp_interactions"] + run.metrics["core.pn_interactions"]
        ) / traverse_s
        if workers:
            _exec_probes(run, hands[-1], app.reports[-1].exec_cache)
        else:
            _engine_probes(run, hands[-1])
    finally:
        app.disable_parallel()
        for hand in hands:
            hand.close()


class _HandGravity:
    """``GravityDriver.run_iteration`` re-composed from public calls;
    ``backend`` names the exec backend the traversal goes through (None:
    straight to the engine, as the Driver does without one)."""

    def __init__(self, rec, app: GravityDriver, particles, backend, workers: int) -> None:
        self.rec, self.app, self.particles = rec, app, particles
        self.backend_name, self.workers = backend, workers
        self.backend = None
        self.first = None

    def traverse(self, tree, dec, visitor):
        engine = get_traverser(self.app.config.traverser)
        if self.backend_name is None:
            with self.rec.span("core.traverse"):
                return engine.traverse(tree, visitor, tree.leaf_indices, None)
        label = self.backend_name + (f"_w{self.workers}" if self.workers > 1 else "")
        with self.rec.span(f"exec.{label}.run"):
            if self.backend is None:   # a pool starts inside its first run
                self.backend = get_backend(self.backend_name, workers=self.workers,
                                           supervise=True)
            return self.backend.run(tree, engine, visitor, tree.leaf_indices,
                                    None, decomposition=dec)

    def iteration(self):
        rec, app = self.rec, self.app
        tree, dec = front(rec, self.particles, app.config)
        self.particles = tree.particles
        visitor = gravity_visitor(rec, tree, app.theta, app.G, app.softening)
        stats = self.traverse(tree, dec, visitor)
        with rec.span("apps.gravity.integrate"):
            kick_drift_kick_half(self.particles, visitor.accel, app.dt)
        with rec.span("particles.scatter"):
            accel = self.particles.scatter_to_input_order(visitor.accel)
        if self.first is None:
            self.first = (tree, dec, stats)
        return digest(accel, self.particles.position), interaction_counts(stats)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.shutdown()


def _engine_probes(run: Run, hand: _HandGravity) -> None:
    """Before-numbers for the default flips (ROADMAP 1e, 2a): the other
    octree builder and the other two top-down engines, one repetition each
    on one tree."""
    rec, app = run.rec, hand.app
    particles = hand.particles
    with rec.span("geometry.morton_keys"):
        morton_keys(particles.position, particles.bounding_box())
    tree = build_tree(particles, app.config.tree_build_config())
    with rec.span("trees.build_linear"):
        linear = build_tree(particles, tree_type=app.config.tree_type,
                            bucket_size=app.config.bucket_size, builder="linear")
    run.check(1, [] if oracles.tree_bytes(linear) == oracles.tree_bytes(tree)
              else ["linear octree is not byte-identical to the recursive one"])
    counts = []
    for engine, span in (("batched", "core.traverse_batched"),
                         ("per-bucket", "core.traverse_perbucket")):
        visitor = gravity_visitor(NO_SPANS, tree, app.theta, app.G, app.softening)
        with rec.span(span):
            stats = get_traverser(engine).traverse(tree, visitor, tree.leaf_indices, None)
        counts.append(interaction_counts(stats))
        run.probe_metric(span + "_s", span)
    run.check(1, [] if counts[0] == counts[1]
              else [f"batched and per-bucket interaction counts differ: {counts}"])
    run.probe_metric("geometry.morton_keys_s", "geometry.morton_keys")
    run.probe_metric("trees.build_linear_s", "trees.build_linear")


def _exec_probes(run: Run, hand: _HandGravity, cache) -> None:
    """The thread backend on one tree and visitor (its workers warm one
    SharedTreeCache, as under the Driver), then the exec numbers: serial
    and processes come from the paired legs of the timed repetitions."""
    rec, app = run.rec, hand.app
    tree, dec = front(NO_SPANS, hand.particles, app.config)
    engine = get_traverser(app.config.traverser)
    shared = SharedTreeCache(tree, dec.node_process(), process=0,
                             nodes_per_request=app.config.nodes_per_request,
                             shared_branch_levels=app.config.shared_branch_levels)

    def through(name, spans, span, cache_arg) -> str:
        visitor = gravity_visitor(NO_SPANS, tree, app.theta, app.G, app.softening)
        with get_backend(name, workers=hand.workers) as backend, spans.span(span):
            backend.run(tree, engine, visitor, tree.leaf_indices, None,
                        decomposition=dec, shared_cache=cache_arg)
        return digest(visitor.accel)

    run.check(1, [] if through("serial", NO_SPANS, "", None)
              == through("threads", rec, "exec.threads_w2.run", shared)
              else ["threads accelerations differ from serial"])
    serial = run.metrics["exec.serial.run_s"]
    procs = run.metrics["exec.processes_w2.run_s"]
    first_run = rec.samples("exec.processes_w2.run", timed_only=False)[0]
    run.probe_metric("exec.threads_w2.run_s", "exec.threads_w2.run")
    run.metrics.update({
        # what the first parallel run costs over a steady one (pool start, first attach)
        "exec.processes_w2.startup_s": first_run - procs,
        "exec.chunks": len(hand.backend.last_tasks),
        "speedup_w2": serial / procs,
        "exec.efficiency_w2": serial / (hand.workers * procs),
        "cache.attach_hit_rate": cache["hit_rate"],
        "cache.attach_misses": cache["attach_misses"],
    })


# -- sph_uniform --------------------------------------------------------------

class _SpanBackend(SerialBackend):
    """The public ``backend=`` hook of ``knn_search``, used to put a span
    around the up-and-down traversal inside ``compute_density_knn``."""

    def __init__(self, rec) -> None:
        super().__init__()
        self.rec = rec

    def run(self, *args, **kwargs):
        with self.rec.span("apps.knn.search"):
            return super().run(*args, **kwargs)


def sph_uniform(run: Run) -> None:
    rec = run.rec or NO_SPANS
    with rec.span("particles.generate"):
        start = uniform_cube(run.size(8_000, 600), seed=run.seed)
    run.detail["input_digest"] = digest(start.position)
    app = SPHDriver(Configuration(), k_neighbors=32, dt=1e-4)
    app.particles = start.copy()
    first = {}

    def product_step(k):
        report = app.run_iteration(k)
        nbrs = app.state.neighbors
        if k == 0:
            first.update(index=nbrs.index.copy(), dist_sq=nbrs.dist_sq.copy(),
                         labels=app.particles.orig_index.copy())
        return (digest(nbrs.index, app.state.density, app.accelerations),
                report.stats.as_dict())

    state = {"particles": start.copy(), "first": None}
    backend = _SpanBackend(rec)

    def hand_step():
        tree, dec = front(rec, state["particles"], app.config)
        p = state["particles"] = tree.particles
        with rec.span("apps.sph.density"):
            sph = compute_density_knn(tree, k=app.k, backend=backend)
        with rec.span("apps.sph.forces"):
            pressure = equation_of_state(sph.density, internal_energy=app.internal_energy,
                                         gamma=app.gamma)
            accel = compute_pressure_forces(tree, sph.neighbors, sph.density,
                                            pressure, sph.h)
        p.velocity += accel * app.dt
        p.position += p.velocity * app.dt
        if state["first"] is None:
            state["first"] = (tree, dec, None)
            run.metrics["apps.knn.pp_per_query"] = sph.stats.pp_interactions / len(p)
        return digest(sph.neighbors.index, sph.density, accel), sph.stats.as_dict()

    product = measure(run, product_step, hand_step)
    run.check(len(product) + 1, [] if np.isfinite(app.accelerations).all()
              else ["non-finite SPH accelerations"])
    if run.oracle:
        # neighbour lists of iteration 0 (tree order) against brute force
        # on the positions they were searched on
        pos = start.position[first["labels"]]
        sample = oracles.sample_indices(len(start), 256, run.seed)
        run.check(len(sample),
                  oracles.check_knn(pos, sample, first["index"], first["dist_sq"]))
    if run.trace:
        structure_counts(run, *state["first"])
        layer_budget(run, product)


# -- disk_collide -------------------------------------------------------------

def disk_collide(run: Run) -> None:
    rec = run.rec or NO_SPANS
    params = DiskParams(planetesimal_radius=2.5e-3, eccentricity_dispersion=0.015)
    with rec.span("particles.generate"):
        start = keplerian_disk(run.size(3_000, 400), params=params, seed=run.seed)
    run.detail["input_digest"] = digest(start.position)
    cfg = Configuration(tree_type=TreeType.LONGEST_DIM, decomp_type="longest",
                        num_partitions=16, num_subtrees=16)
    app = PlanetesimalDriver(cfg, dt=0.025, merge=False)
    app.particles = start.copy()
    first_velocity = []

    def product_step(k):
        before = len(app.log)
        report = app.run_iteration(k)
        p = app.particles
        if k == 0:
            first_velocity.append(p.scatter_to_input_order(p.velocity))
        return (digest(p.position, p.velocity, p.orig_index),
                len(app.log) - before, report.stats.as_dict())

    state = {"particles": start.copy(), "first": None}

    def hand_step():
        tree, dec = front(rec, state["particles"], cfg)
        p = state["particles"] = tree.particles
        visitor = gravity_visitor(rec, tree, app.theta, G_AU_MSUN_YR, app.softening)
        with rec.span("core.traverse"):
            stats = get_traverser(cfg.traverser).traverse(
                tree, visitor, tree.leaf_indices, None)
        with rec.span("apps.gravity.integrate"):
            kick(p, visitor.accel, app.dt)
        with rec.span("apps.collision.detect"):
            events, _ = detect_collisions(tree, app.dt, exclude_types=p.ptype != 0)
        with rec.span("apps.gravity.integrate"):
            drift(p, app.dt)
        if state["first"] is None:
            state["first"] = (tree, dec, stats)
            run.metrics["apps.collision.events"] = len(events)
        return (digest(p.position, p.velocity, p.orig_index), len(events),
                stats.as_dict())

    product = measure(run, product_step, hand_step)
    run.check(len(product) + 1, [] if np.isfinite(app.particles.position).all()
              else ["non-finite disk positions"])
    if run.oracle:
        # the step's only velocity change is the kick v += a dt, so the
        # accelerations the product used are (v1 - v0) / dt
        accel = (first_velocity[0] - start.velocity) / app.dt
        sample = oracles.sample_indices(len(start), 512, run.seed)
        med, p99, misses = oracles.check_gravity(
            start.position, start.mass, accel, sample, G_AU_MSUN_YR, app.softening)
        run.check(2, misses)
        if run.trace:
            run.metrics.update({"accuracy_err_p50": med, "accuracy_err_p99": p99})
    if run.trace:
        structure_counts(run, *state["first"])
        layer_budget(run, product)


# -- rebuild_300k -------------------------------------------------------------

#: (tree type, decomposer): three builders, three splitters
REBUILD_TREES = (("oct", "sfc"), ("kd", "oct"), ("longest", "longest"))


def rebuild_cycle(rec, particles) -> dict:
    built = {}
    for tree_type, decomp in REBUILD_TREES:
        cfg = Configuration(tree_type=tree_type, decomp_type=decomp)
        tree, dec = front(rec, particles, cfg)
        with rec.span("core.summarise"):
            compute_centroid_arrays(tree, theta=0.7)
        built[tree_type] = (tree, dec)
    return built


def rebuild_300k(run: Run) -> None:
    rec = run.rec or NO_SPANS
    with rec.span("particles.generate"):
        start = clustered_clumps(run.size(300_000, 6_000), seed=run.seed)
    run.detail["input_digest"] = digest(start.position)
    built = {}

    def cycle(spans) -> tuple:
        built.clear()
        built.update(rebuild_cycle(spans, start))
        return (digest(*(oracles.tree_bytes(tree) for tree, _ in built.values())),)

    product = measure(run, lambda k: cycle(NO_SPANS), lambda: cycle(rec))
    run.check(len(product) + 1, [])
    if run.oracle:
        with rec.span("trees.build_linear"):
            linear = build_tree(start, tree_type="oct", bucket_size=16, builder="linear")
        run.check(*oracles.check_trees({k: tree for k, (tree, _) in built.items()}, linear))
    if run.trace:
        with rec.span("geometry.morton_keys"):
            morton_keys(start.position, start.bounding_box())
        structure_counts(run, *built["oct"], None)
        layer_budget(run, product)
        run.probe_metric("geometry.morton_keys_s", "geometry.morton_keys")
        run.probe_metric("trees.build_linear_s", "trees.build_linear")


WORKLOADS = {f.__name__: f for f in (gravity_clumps, gravity_clumps_w2,
                                     sph_uniform, disk_collide, rebuild_300k)}
