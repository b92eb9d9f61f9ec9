"""Attribution-recorder overhead (PR 8 acceptance gate).

Three bars around the same gravity pipeline:

* ``attr.gravity_off`` — no ``Attribution`` observer plugged in.  This is
  the seed path; nothing attribution-related runs, so the bar must sit
  within the PR 3 noise gate of the plain pipeline.
* ``attr.gravity_on`` — per-node SoA counters recording.  The recorder
  is a handful of ``np.add.at`` scatters per traversal batch; the run
  must stay within a few percent.
* ``attr.merge`` — fork/absorb reduction cost: integer array addition,
  independent of how much traversal the workers attributed.

Compare against a baseline with ``repro bench compare``; the obs-smoke
CI job runs the quick variants and commits the result as BENCH_pr8.json.
"""

import time

import numpy as np

from repro.apps.gravity import GravityDriver
from repro.core import Configuration
from repro.core.observers import Attribution
from repro.particles import clustered_clumps
from repro.perf import benchmark as perf_benchmark


def _run_gravity(n: int, attribution: bool, traverser: str = Configuration.traverser):
    p = clustered_clumps(n, seed=9)

    class Main(GravityDriver):
        def create_particles(self, config):
            return p

    d = Main(Configuration(num_iterations=2, num_partitions=4,
                           num_subtrees=4, traverser=traverser), theta=0.7)
    d.attr = d.observe(Attribution()) if attribution else None
    d.run()
    return d


@perf_benchmark("attr.gravity_off", group="obs",
                description="gravity pipeline with attribution disabled "
                            "(must match the seed path within noise)")
def bench_attr_off(quick=False):
    n = 2_000 if quick else 8_000

    def run():
        d = _run_gravity(n, attribution=False)
        return {"iterations": len(d.reports),
                "profiles": 0 if d.attr is None else len(d.attr.profiles)}

    return run


@perf_benchmark("attr.gravity_on", group="obs",
                description="same pipeline with per-node attribution "
                            "counters recording")
def bench_attr_on(quick=False):
    n = 2_000 if quick else 8_000

    if quick:
        # Gate before timing: a recorder attached to the default (batched)
        # engine gets one call per level of a frontier segment, and that must
        # not cost more than the transposed ordering's one call per tree
        # node.  Fastest of three alternating runs each, 10 % slack.
        fastest = {Configuration.traverser: np.inf, "transposed": np.inf}
        for _ in range(3):
            for traverser in fastest:
                t = time.perf_counter()
                _run_gravity(n, attribution=True, traverser=traverser)
                fastest[traverser] = min(fastest[traverser], time.perf_counter() - t)
        assert fastest[Configuration.traverser] <= 1.1 * fastest["transposed"], fastest

    def run():
        d = _run_gravity(n, attribution=True)
        prof = d.attr.profiles[-1]
        return {"iterations": len(d.reports),
                "visits": int(prof.arrays["visits"].sum()),
                "cost_ns": int(prof.arrays["cost_ns"].sum())}

    return run


@perf_benchmark("attr.merge", group="obs",
                description="absorb forked attribution recorders "
                            "(integer array addition, workload free)")
def bench_attr_merge(quick=False):
    from repro.obs import AttributionRecorder

    n_nodes = 20_000 if quick else 100_000
    n_forks = 32 if quick else 128
    rng = np.random.default_rng(7)
    root = AttributionRecorder(n_nodes)
    forks = []
    for _ in range(n_forks):
        f = root.fork()
        f.visits += rng.integers(0, 50, n_nodes)
        f.pn_pairs += rng.integers(0, 200, n_nodes)
        f.pp_pairs += rng.integers(0, 200, n_nodes)
        forks.append(f)

    def run():
        merged = root.fork()
        for f in forks:
            merged.absorb(f)
        return {"n_nodes": n_nodes, "n_forks": n_forks,
                "total_visits": int(merged.visits.sum())}

    return run
