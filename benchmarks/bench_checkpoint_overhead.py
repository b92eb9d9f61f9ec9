"""Checkpoint overhead: the gravity Driver pipeline with checkpointing
off, every iteration, and every other iteration.

The acceptance bar for the resilience layer mirrors the telemetry one:
**zero** cost when disabled (the seed path never touches
``repro.resilience``; ``Driver.run`` only checks one ``is not None``), and
bounded, interval-scaled cost when enabled (state capture + CRC checksums +
compressed npz write + rotation).  The in-memory buddy commit is measured
separately — it is the double-checkpoint path a real Charm++ run would use
between disk epochs.

Run ``pytest benchmarks/bench_checkpoint_overhead.py --benchmark-only -s``.
"""

import numpy as np

from repro.apps.gravity import GravityDriver
from repro.bench import format_table, print_banner
from repro.core import Configuration
from repro.particles import clustered_clumps
from repro.perf import benchmark as perf_benchmark
from repro.resilience import (BuddyStore, CheckpointWriter, capture_run,
                              checkpoint_to_bytes)

ITERATIONS = 4


def _driver(n, iterations=ITERATIONS, dt=1e-3):
    p = clustered_clumps(n, seed=13)

    class Main(GravityDriver):
        def create_particles(self, config):
            return p.copy()

    cfg = Configuration(num_iterations=iterations, num_partitions=16,
                        num_subtrees=16)
    return Main(cfg, theta=0.7, softening=1e-3, dt=dt)


@perf_benchmark("resilience.ckpt_disabled", group="resilience",
                description="gravity Driver, checkpointing disabled (seed path)")
def perf_ckpt_disabled(quick=False):
    n = 1_500 if quick else 6_000

    def run():
        driver = _driver(n)
        driver.run()
        return {"iterations": len(driver.reports)}

    return run


@perf_benchmark("resilience.ckpt_every1", group="resilience",
                description="gravity Driver, checkpoint written every iteration")
def perf_ckpt_every1(quick=False):
    import tempfile

    n = 1_500 if quick else 6_000

    def run():
        with tempfile.TemporaryDirectory() as d:
            driver = _driver(n)
            writer = driver.observe(CheckpointWriter(d, every=1))
            driver.run()
            return {"checkpoints": len(writer.written)}

    return run


@perf_benchmark("resilience.buddy_commit", group="resilience",
                description="in-memory serialize + buddy-store commit of one checkpoint")
def perf_buddy_commit(quick=False):
    driver = _driver(1_500 if quick else 6_000, iterations=1)
    driver.run()
    store = BuddyStore(8)

    def run():
        blob = checkpoint_to_bytes(capture_run(driver, next_iteration=1))
        store.commit(0, blob)
        return {"blob_bytes": len(blob)}

    return run


def test_checkpoint_interval_cost(benchmark, tmp_path):
    """Wall-clock by checkpoint interval; disabled must be the floor."""
    import time

    n = 4_000

    def timed(every):
        driver = _driver(n)
        if every:
            driver.observe(CheckpointWriter(tmp_path / f"every{every}", every=every))
        t0 = time.perf_counter()
        driver.run()
        return time.perf_counter() - t0, driver

    def sweep():
        out = []
        for every in (0, 2, 1):
            secs, driver = timed(every)
            n_ckpts = 0 if not every else ITERATIONS // every
            out.append((every or "off", f"{secs * 1e3:.1f}", n_ckpts))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_banner(f"checkpoint overhead (gravity, n={n}, {ITERATIONS} iterations)")
    print(format_table(["every", "run ms", "checkpoints"], rows))
    # The disabled run must not regress: it writes nothing and never
    # imports the resilience package.
    assert rows[0][2] == 0
    assert rows[2][2] == ITERATIONS


def test_disabled_run_is_bit_identical_to_checkpointed(tmp_path):
    """Checkpointing only *observes* state: a run that writes checkpoints
    produces the same physics as one that doesn't."""
    a = _driver(1_200)
    a.run()
    b = _driver(1_200)
    b.observe(CheckpointWriter(tmp_path, every=1))
    b.run()
    np.testing.assert_array_equal(a.particles.position, b.particles.position)
    np.testing.assert_array_equal(a.accelerations, b.accelerations)
