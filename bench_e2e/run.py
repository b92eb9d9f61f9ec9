"""bench_e2e: the system benchmark recorded in BENCHMARK.json.

    python bench_e2e/run.py --seed 1               # six workloads untraced, then traced
    python bench_e2e/run.py --only disk_collide    # a subset (comma list)
    python bench_e2e/run.py --smoke                # tiny N, for the tests
    python bench_e2e/run.py --workload gravity_clumps --seed 3 --seconds 8 --trace 0

The last form runs one workload in one mode and prints one JSON object
as its last line (``correct``, ``attempted``, ``failed``, ``metrics``).
Every form prints every metric by name and unit, checks that outputs are
correct, and exits non-zero on any miss.  Each workload runs in a fresh
subprocess with the BLAS thread counts pinned to 1; this process never
imports numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from stats import summary  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
#: an untraced run is this many segments, each a fresh process that sets up
#: and then measures its share of ``--seconds``; ``setup_s`` and
#: ``peak_rss_mb`` are medians over the segments, ``iter_s`` the lower
#: quartile over the repetitions of all of them
SEGMENTS = 3


class WorkloadFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
          oracle: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--spawned", repr(time.time())]
    cmd += ["--smoke"] * smoke + ["--oracle"] * oracle
    env = {**os.environ, **BLAS_PINS, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{workload} (trace={trace}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> dict:
    """One workload in one mode -> its declared metrics and its checks."""
    n = 1 if trace or smoke else SEGMENTS
    # the brute-force oracles run once, in the last segment; every segment
    # checks its own operations and reports a digest of its first output
    parts = [spawn(workload, seed, seconds / n, trace, smoke, oracle=i == n - 1)
             for i in range(n)]
    last = parts[-1]
    measured = dict(last["metrics"])
    timings = dict(last["timings"])
    attempted = sum(p["attempted"] for p in parts) + 1
    misses = [m for p in parts for m in p["misses"]]
    failed = sum(p["failed"] for p in parts)
    if len({p["detail"].get("output_digest") for p in parts}) != 1:
        failed += 1
        misses.append("segments of one run disagree on the output of the same seed")
    if not trace:
        pooled = [x for p in parts for x in p["samples"]["iter_s"]]
        for name, values in (("iter_s", pooled),
                             ("setup_s", [p["metrics"]["setup_s"] for p in parts]),
                             ("peak_rss_mb", [p["metrics"]["peak_rss_mb"] for p in parts])):
            timings[name] = {**summary(values), "samples": values}
            measured[name] = timings[name]["median"]
        # interference on a shared host only ever adds time: between identical
        # runs the lower quartile of the repetitions moves half as much as
        # their median, so it is the value that is gated
        measured["iter_s"] = timings["iter_s"]["q1"]

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = measured.get(m["name"])
        if value is None and not trace:
            raise WorkloadFailed(f"{workload}: no value for {m['name']}")
        if value is None:
            # a layer this workload never calls: its timings read the
            # recorder's own measured empty-span cost, its counts read 0
            value = last["detail"]["floor_s"] * TIME_SCALE.get(m["unit"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = sorted(set(measured) - {m["name"] for k in ("end_to_end", "per_layer")
                                    for m in spec[k]})
    if extra:
        raise WorkloadFailed(f"{workload}: metrics not in BENCHMARK.json: {extra}")
    return {"metrics": metrics, "measured": sorted(measured),
            "attempted": attempted, "failed": failed, "misses": misses,
            "timings": timings, "detail": last["detail"], "versions": last["versions"]}


def show(workload: str, trace: int, got: dict) -> None:
    print(f"== {workload} ({'traced' if trace else 'untraced'}): "
          f"{got['attempted']} operations, {got['failed']} failed")
    for name, m in got["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for miss in got["misses"]:
        print(f"  MISS: {miss}")


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    load = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "git_sha": sha, "blas_pins": BLAS_PINS,
            "load_1min_at_start": load, "noisy": load > nproc}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload in one mode (driver contract)")
    ap.add_argument("--only", help="comma list of workloads for the suite")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny N; the output is marked smoke and agree.py refuses it")
    ap.add_argument("--out", default=str(OUT / "result.json"))
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else (
        0.2 if args.smoke else spec["run_seconds"])
    OUT.mkdir(exist_ok=True)

    if args.workload:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
        try:
            got = measure(spec, args.workload, args.seed, seconds, args.trace, args.smoke)
        except WorkloadFailed as exc:
            print(f"bench_e2e: {exc}", file=sys.stderr)
            return 1
        show(args.workload, args.trace, got)
        (OUT / f"run_{args.workload}_t{args.trace}.json").write_text(json.dumps(got, indent=1))
        correct = got["failed"] == 0
        print(json.dumps({"correct": correct, "attempted": got["attempted"],
                          "failed": got["failed"], "metrics": got["metrics"]}))
        return 0 if correct else 1

    chosen = args.only.split(",") if args.only else names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        ap.error(f"unknown workloads {unknown} (known: {', '.join(names)})")
    doc = {"schema": "bench_e2e/1", "smoke": args.smoke, "seed": args.seed,
           "seconds": seconds, "env": environment(), "suite_wall_s": {},
           "workloads": {w: {} for w in chosen}}
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        t = time.perf_counter()
        for workload in chosen:
            try:
                got = measure(spec, workload, args.seed, seconds, trace, args.smoke)
            except WorkloadFailed as exc:
                print(f"bench_e2e: {exc}", file=sys.stderr)
                ok = False
                continue
            show(workload, trace, got)
            ok = ok and got["failed"] == 0
            doc["env"].update(got.pop("versions"))
            got[key] = got.pop("metrics")
            got["fail_frac"] = got["failed"] / got["attempted"]
            doc["workloads"][workload]["traced" if trace else "untraced"] = got
        doc["suite_wall_s"]["traced" if trace else "untraced"] = time.perf_counter() - t
    Path(args.out).write_text(json.dumps(doc, indent=1))
    print(f"wrote {args.out}; suite wall {doc['suite_wall_s']}; "
          f"{'ok' if ok else 'FAILED'}" + ("; NOISY (load > nproc)" if doc["env"]["noisy"] else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
