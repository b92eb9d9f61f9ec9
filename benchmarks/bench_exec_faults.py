"""Fault-recovery cost for the exec backends.

What does recovery cost as the kill rate rises?  The process backend
under seeded ``ExecFaultPlan`` worker-kill plans — real ``SIGKILL`` on
live workers, pool rebuilds, quarantines — recording the slowdown vs a
fault-free run and the recovery-action counts as extras, with the perf
harness's robust statistics.

Run ``python -m repro bench run --quick 'exec.faults.*' -o BENCH_pr7.json``
to regenerate the PR 7 record.
"""

import time

from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
from repro.exec import get_backend
from repro.faults import ExecFaultPlan
from repro.particles.generators import clustered_clumps
from repro.perf import benchmark as perf_benchmark
from repro.trees import build_tree


def _gravity_workload(quick=False):
    n = 4_000 if quick else 20_000
    tree = build_tree(clustered_clumps(n, seed=29), tree_type="oct",
                      bucket_size=16)
    arrays = compute_centroid_arrays(tree, theta=0.6)

    def make_visitor():
        return GravityVisitor(tree, arrays, softening=1e-3)

    return tree, make_visitor


def _recovery_bench(kill_rate):
    def setup(quick=False):
        tree, make_visitor = _gravity_workload(quick)
        clean = get_backend("processes", workers=4, supervise=True)
        clean.run(tree, "transposed", make_visitor())  # warm the clean pool

        def run():
            t0 = time.perf_counter()
            clean.run(tree, "transposed", make_visitor())
            clean_s = time.perf_counter() - t0
            # fresh backend per sample: a kill plan leaves the pool dead,
            # so reuse would time pool rebuilds from the *previous* sample
            faulty = get_backend(
                "processes", workers=4,
                exec_faults=ExecFaultPlan(seed=3, worker_kill=kill_rate),
            )
            try:
                t0 = time.perf_counter()
                faulty.run(tree, "transposed", make_visitor())
                faulty_s = time.perf_counter() - t0
                sup = faulty.last_supervision or {}
            finally:
                faulty.shutdown()
            return {
                "clean_ms": clean_s * 1e3,
                "faulty_ms": faulty_s * 1e3,
                "slowdown": faulty_s / clean_s if clean_s else 0.0,
                **{f"sup_{k}": v for k, v in sup.items() if v},
            }

        return run

    return setup


perf_recovery_kill10 = perf_benchmark(
    "exec.faults.recovery_kill10", group="exec", repeats=3, quick_repeats=2,
    description="recovery cost, process backend, 10% worker-kill rate",
)(_recovery_bench(0.10))

perf_recovery_kill25 = perf_benchmark(
    "exec.faults.recovery_kill25", group="exec", repeats=3, quick_repeats=2,
    description="recovery cost, process backend, 25% worker-kill rate",
)(_recovery_bench(0.25))


def test_supervised_fault_free_is_parallel(benchmark):
    """pytest-benchmark wrapper: supervision must not change the fault-free
    execution mode or trip any recovery counter."""
    tree, make_visitor = _gravity_workload(quick=True)
    backend = get_backend("processes", workers=4, supervise=True)
    backend.run(tree, "transposed", make_visitor())

    def run():
        backend.run(tree, "transposed", make_visitor())
        return backend.last_mode, backend.last_supervision

    mode, supervision = benchmark.pedantic(run, rounds=1, iterations=1)
    assert mode == "parallel"
    assert not any((supervision or {}).values())
    backend.shutdown()
