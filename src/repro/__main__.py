"""Command-line interface: quick runs of the built-in applications.

Examples::

    python -m repro gravity --n 50000 --theta 0.6
    python -m repro sph --n 8000 --k 32
    python -m repro knn --n 20000 --k 8
    python -m repro disk --n 5000 --steps 40
    python -m repro correlation --n 2000
    python -m repro scale --n 20000 --cores 24 96 384
    python -m repro scale --critical-path
    python -m repro bench list
    python -m repro bench run --quick
    python -m repro bench compare BENCH_baseline.json BENCH_new.json
    python -m repro gravity --iterations 4 --slo 'lat<5s,target=0.95' --flight flight.json
    python -m repro obs dump flight.json --last 20
    python -m repro top gravity --backend threads
    python -m repro serve --n 50000 --rate 2000 --socket serve.sock
    python -m repro serve --bench --overload 4 --slo 'lat<50ms,target=0.95'
    python -m repro serve --validate --bench-rate 400 --deadline-frac 0.25 --query-deadline 0

Every batch pipeline (``gravity`` / ``sph`` / ``knn`` / ``disk`` /
``correlation``, and ``resume``, ``top <pipeline>``, ``explain``) is one row
of :data:`repro.apps.APPS` run by :func:`run_app`: a description — ``(app,
app_config, Configuration dict, {kind, n, seed} dataset)``, the same thing
a checkpoint stores — goes through :func:`repro.apps.make_driver`, the flags
plug observers in, and the row's printer reports the result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from .apps import (APPS, TRAVERSER, TREE_OPTIONS, dataset_options, declare,
                   description, make_driver)


def _add_telemetry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Chrome/Perfetto trace-event JSON")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write the metrics registry (.json, or .csv)")
    p.add_argument("--report", action="store_true",
                   help="print a telemetry summary after the run")
    p.add_argument("--flight", metavar="PATH", default=None,
                   help="arm the flight recorder: the event ring is dumped to "
                        "PATH on crash and at end of run "
                        "(inspect with `repro obs dump PATH`)")
    p.add_argument("--status-file", metavar="PATH", default=None,
                   help="append one JSON status snapshot per iteration "
                        "(watch live with `repro top PATH --follow`)")


def _add_slo(p: argparse.ArgumentParser) -> None:
    p.add_argument("--slo", metavar="SPEC", default=None,
                   help="latency objective over the run, e.g. "
                        "'lat<5ms,target=0.99,burn=1.5,window=0.25'; "
                        "a burn-rate violation exits 1 (bench-compare style)")
    p.add_argument("--slo-report", metavar="PATH", default=None,
                   help="write the SLO evaluation as JSON (repro.slo/1)")


def _add_faults(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject faults, e.g. 'drop=0.05,fail=0.1,seed=3' "
             "(keys: drop, dup, jitter, fail, straggler=FxS, crash=P@R, "
             "seed, retries, timeout, backoff)")


def _add_critical_path(p: argparse.ArgumentParser) -> None:
    p.add_argument("--critical-path", action="store_true",
                   help="attribute simulated time to compute / cache-miss "
                        "latency / queueing / barrier wait along the DES's "
                        "longest dependency chain")


def _add_parallel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default="serial",
                   choices=["serial", "threads", "processes"],
                   help="execution backend for traversals; results are "
                        "bit-identical to serial for any worker count")
    p.add_argument("--workers", type=int, default=0, metavar="W",
                   help="worker count for --backend threads/processes "
                        "(0 = CPU count)")
    p.add_argument("--exec-faults", metavar="SPEC", default=None,
                   help="inject real faults into exec workers: "
                        "err=P,hang=P@SECS,kill=P,seed=N (kill SIGKILLs "
                        "process workers mid-chunk; supervision recovers)")
    p.add_argument("--chunk-deadline", type=float, default=None, metavar="SECS",
                   help="explicit per-chunk deadline; expired attempts are "
                        "abandoned and re-dispatched (default: seeded from "
                        "observed chunk latency)")
    p.add_argument("--max-chunk-retries", type=int, default=None, metavar="K",
                   help="re-dispatch budget per chunk before it is "
                        "quarantined and run serially in-parent (default 3)")


def _add_checkpoint(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="write a checkpoint every K completed iterations "
                        "(0 = off); resume with `repro resume <checkpoint>`")
    p.add_argument("--checkpoint-dir", default="checkpoints", metavar="DIR",
                   help="directory for ckpt_*.npz files (default: checkpoints)")
    p.add_argument("--save-state", metavar="PATH", default=None,
                   help="write the final particle state (npz snapshot) — "
                        "compare runs with `repro audit A B`")


# -- running a Driver from the command line ------------------------------------

class BadInput(Exception):
    """A spec, file or checkpoint the command line could not take in:
    :func:`main` prints it as one ``error:`` line and exits 2.  Anything
    else raised during a run is a bug and keeps its traceback."""


@contextmanager
def _ingest(what: str = ""):
    """Where a command reads its specs and files: what they reject is
    re-raised as :class:`BadInput`, prefixed with ``what``."""
    try:
        yield
    except FileNotFoundError as exc:
        raise BadInput(f"{what}not found: {exc.filename}") from None
    except (OSError, ValueError, KeyError) as exc:
        raise BadInput(f"{what}{exc}") from None


def _slo_spec(args):
    """The parsed ``--slo`` spec or None; called inside :func:`_ingest`
    before any work, so a bad spec never starts the run."""
    if not getattr(args, "slo", None):
        return None
    from .obs import parse_slo_spec

    return parse_slo_spec(args.slo)


def _evaluate_slo(spec, samples, args) -> int:
    """Evaluate ``spec`` over latency ``samples``; returns the exit code."""
    from .obs import evaluate_slo

    report = evaluate_slo(spec, samples)
    print(report.summary())
    if args.slo_report:
        with _ingest("could not write SLO report: "):
            report.write(args.slo_report)
        print(f"wrote SLO report to {args.slo_report}")
    return 1 if report.violated else 0


def _enable_parallel_from_args(driver, args) -> None:
    """Attach the requested execution backend to a Driver run.  The exec
    flags are parsed on every backend, so a bad spec fails the same way
    whether or not a pool would use it."""
    from .exec import SupervisorConfig
    from .faults import parse_exec_fault_spec

    overrides = {key: getattr(args, key)
                 for key in ("chunk_deadline", "max_chunk_retries")
                 if getattr(args, key) is not None}
    supervise = SupervisorConfig(**overrides) if overrides else True
    faults = parse_exec_fault_spec(args.exec_faults) if args.exec_faults else None
    if args.backend != "serial":
        driver.enable_parallel(args.backend, workers=args.workers or None,
                               supervise=supervise, exec_faults=faults)


def _print_exec_health(driver) -> None:
    """One line per degraded iteration: what supervision had to do."""
    for rep in driver.reports:
        if rep.exec_mode != "degraded" or not rep.supervision:
            continue
        acts = ", ".join(f"{k}={v}" for k, v in rep.supervision.items() if v)
        print(f"iteration {rep.iteration}: exec degraded ({acts})")


def _print_comm_sims(driver) -> None:
    """One block per replayed iteration."""
    for rep in driver.reports:
        cs = rep.comm_sim
        if not cs:
            continue
        if cs.get("failed"):
            print(f"iteration {rep.iteration}: comm sim FAILED "
                  f"({cs.get('reason')}, process={cs.get('process')}, "
                  f"attempts={cs.get('attempts')}) counters={cs.get('counters')}")
            continue
        faults = f" faults={cs['faults']}" if cs.get("faults") else ""
        print(f"iteration {rep.iteration}: comm sim {cs['time'] * 1e3:.3f} ms"
              + faults)
        if cs.get("recovery"):
            _print_recovery_dict(cs["recovery"])
        if cs.get("critical_path"):
            _print_critical_path_dict(cs["critical_path"])


def _save_state(driver, path: str) -> None:
    """Final particle state as a checksummed snapshot; accelerations ride
    along as an extra field so audits compare the physics, not just the
    positions."""
    from .particles import save_particles

    p = driver.particles.copy()
    acc = getattr(driver, "accelerations", None)
    if acc is not None and not p.has_field("acceleration"):
        p.add_field("acceleration", np.ascontiguousarray(acc))
    save_particles(path, p)
    print(f"wrote final state ({len(p)} particles) to {path}")


def _print_recovery_dict(rec: dict, indent: str = "  ") -> None:
    print(f"{indent}recovery: {rec['n_crashes']} crash(es), "
          f"lost {rec['lost_cache_lines']} cache lines "
          f"({rec['lost_bytes']:.0f} B), "
          f"refetched {rec['bytes_refetched']:.0f} B from buddies, "
          f"{rec['recovery_time'] * 1e3:.3f} ms recovering")


def _print_critical_path_dict(cp: dict, indent: str = "  ") -> None:
    """Render the ``critical_path`` sub-dict of a comm-sim summary."""
    from .perf import format_components

    print(f"{indent}critical path: "
          + format_components(cp.get("components", {}), cp.get("makespan")))
    top = sorted(cp.get("by_label", {}).items(), key=lambda kv: -kv[1])[:4]
    makespan = cp.get("makespan") or 1.0
    for label, secs in top:
        print(f"{indent}  {label:<26} {secs * 1e3:10.3f} ms  {secs / makespan:6.1%}")


def _finish_telemetry(telemetry, args) -> None:
    """Write what the telemetry flags asked for (``main`` calls this once,
    after the command)."""
    if telemetry is None:
        return
    from .obs import console_report, write_chrome_trace
    from .obs import write_metrics_csv, write_metrics_json

    opt = vars(args).get
    try:
        if opt("trace"):
            n = write_chrome_trace(telemetry, args.trace, command=args.command)
            print(f"wrote {n} trace events to {args.trace} (open in ui.perfetto.dev)")
        if opt("metrics"):
            write = write_metrics_csv if args.metrics.endswith(".csv") else write_metrics_json
            print(f"wrote {write(telemetry, args.metrics)} metrics to {args.metrics}")
        if opt("flight"):
            telemetry.flight.dump(args.flight, reason="end-of-run")
            print(f"wrote flight recording ({len(telemetry.flight)} events, "
                  f"{telemetry.flight.dropped} dropped) to {args.flight}")
    except OSError as exc:
        print(f"error: could not write telemetry output: {exc}", file=sys.stderr)
    if opt("report"):
        print(console_report(telemetry), end="")


def run_app(args, desc=None, *observers, show=None) -> int:
    """Every batch subcommand, ``resume``, ``top <app>`` and ``explain``:
    description (default: the one the row's flags spell) -> Driver ->
    the observers the flags name, then ``observers`` -> run ->
    ``show(driver, args, wall)`` (default: the row's printer), whose exit
    code, if any, it returns."""
    from .core.observers import CommReplay, StatusFeed
    from .obs import get_telemetry
    from .resilience import (CheckpointWriter, RunInterrupted, audit_restore,
                             graceful_interrupts, load_checkpoint)
    from .resilience.resume import driver_from_checkpoint

    opt = vars(args).get  # explain and top declare only some of the flags
    ckpt = replay = writer = None
    with _ingest():
        if args.command == "resume":
            ckpt = load_checkpoint(args.checkpoint)
            driver = driver_from_checkpoint(ckpt)
            if args.faults and "faults" not in APPS[ckpt.app].groups:
                raise BadInput(f"{ckpt.app} takes no --faults: its traversal "
                               f"does not go through partitions(), so none is replayed")
            if args.iterations is not None:
                driver.config.num_iterations = args.iterations
            app, app_config = ckpt.app, ckpt.app_config
        else:
            desc = desc or description(args.command, APPS[args.command].options, args)
            driver = make_driver(**desc)
            app, app_config = desc["app"], desc["app_config"]
        # A resumed run replays the checkpointed fault plan unless told
        # otherwise: its PRNG stream positions are part of the restored state.
        faults = opt("faults") or (ckpt.fault_spec if ckpt else None)
        slo = _slo_spec(args)
        if faults or opt("critical_path"):
            replay = driver.observe(CommReplay(faults, opt("critical_path")))
        telemetry = get_telemetry()
        if telemetry.enabled:
            driver.enable_telemetry(telemetry)
        _enable_parallel_from_args(driver, args)
        if opt("status_file"):
            from .obs import StatusWriter

            driver.observe(StatusFeed(StatusWriter(args.status_file)))
        if opt("checkpoint_every"):
            writer = driver.observe(CheckpointWriter(
                args.checkpoint_dir, every=args.checkpoint_every,
                app=app, app_config=app_config,
            ))
    for observer in observers:
        driver.observe(observer)
    t0 = time.time()
    try:
        with graceful_interrupts():
            driver.run(resume_from=ckpt)
    except RunInterrupted as exc:
        # The armed flight recorder has already dumped (Driver.run's crash
        # hook); a final checkpoint keeps the interrupted run resumable, and
        # the exit code follows the 128 + N convention.
        msg = (f"interrupted by {exc.signal_name} after {len(driver.reports)} "
               f"completed iteration(s)")
        path = writer.write_final(driver) if writer is not None else None
        if path:
            msg += f"; wrote checkpoint {path} (resume with `repro resume {path}`)"
        print(msg, file=sys.stderr)
        return exc.exit_code
    finally:
        driver.disable_parallel()
    wall = time.time() - t0
    rc = 0
    if ckpt is None:
        rc = (show or APPS[app].show)(driver, args, wall) or 0
    else:
        ran = max(driver.config.num_iterations - ckpt.iteration, 0)
        print(f"resumed {app or 'run'} at iteration {ckpt.iteration}: "
              f"ran {ran} more iteration(s) in {wall:.2f}s")
    _print_exec_health(driver)
    if replay is not None:
        _print_comm_sims(driver)
    if ckpt is not None:
        problems = audit_restore(driver)
        for prob in problems:
            print(f"audit: {prob}", file=sys.stderr)
        rc = 1 if problems else 0
        if not problems:
            print("consistency audit passed")
    if rc == 0 and opt("save_state"):
        _save_state(driver, args.save_state)
    if rc == 0 and slo is not None:
        from .obs import samples_from_reports

        rc = _evaluate_slo(slo, samples_from_reports(driver.reports), args)
    return rc


def cmd_audit(args) -> int:
    if args.shm:
        from .exec import sweep_orphan_segments

        records = sweep_orphan_segments(
            prefix=args.shm_prefix, dry_run=args.dry_run
        )
        orphans = [r for r in records if r["orphan"]]
        live = len(records) - len(orphans)
        for r in orphans:
            verb = "would remove" if args.dry_run else (
                "removed" if r["removed"] else "failed to remove")
            print(f"  {verb} {r['name']} "
                  f"({r['bytes']:,} B, dead pid {r['pid']}, "
                  f"generation {r['generation']})")
        freed = sum(r["bytes"] for r in orphans if r["removed"] or args.dry_run)
        print(f"shm sweep: {len(orphans)} orphan segment(s) "
              f"({freed:,} B), {live} owned by live processes (kept)")
        return 0
    if args.a is None or args.b is None:
        raise BadInput("audit needs two state archives (or --shm)")
    from .resilience import audit_state_files

    with _ingest():
        problems = audit_state_files(args.a, args.b)
    if problems:
        print(f"{len(problems)} difference(s) between {args.a} and {args.b}:")
        for prob in problems:
            print(f"  {prob}")
        return 1
    print(f"bit-identical: {args.a} == {args.b}")
    return 0


def cmd_scale(args) -> int:
    from .bench import build_gravity_workload
    from .cache import CACHE_MODELS
    from .faults import IterationFailure, parse_fault_spec
    from .runtime import MACHINES, simulate_traversal

    with _ingest():
        fault_plan = parse_fault_spec(args.faults) if args.faults else None
        slo = _slo_spec(args)
    machine = MACHINES[args.machine]
    gw = build_gravity_workload(distribution="clustered", n=args.n,
                                n_partitions=args.partitions,
                                n_subtrees=args.partitions, seed=args.seed)
    model = CACHE_MODELS[args.cache]
    workers = args.workers or machine.workers_per_node
    print(f"{args.machine}, {workers} workers/process, cache={args.cache}"
          + (f", faults='{fault_plan.describe()}'" if fault_plan else ""))

    slo_samples: list = []
    for cores in args.cores:
        try:
            r = simulate_traversal(gw.workload, machine=machine,
                                   n_processes=max(cores // workers, 1),
                                   workers_per_process=workers, cache_model=model,
                                   faults=fault_plan,
                                   critical_path=args.critical_path,
                                   collect_trace=args.critical_path
                                   or slo is not None)
        except IterationFailure as exc:
            print(f"  {cores:>7} cores: FAILED ({exc}) counters={exc.counters.to_dict()}")
            continue
        extra = f", faults={r.faults.to_dict()}" if r.faults is not None else ""
        print(f"  {cores:>7} cores: {r.time * 1e3:9.3f} ms, "
              f"{r.requests:,} requests, {r.bytes_moved / 1e6:.1f} MB{extra}")
        if r.recovery is not None:
            _print_recovery_dict(r.recovery.to_dict(), indent="    ")
        if r.critical_path is not None:
            for line in r.critical_path.format().splitlines():
                print(f"    {line}")
        if slo is not None:
            from .obs import samples_from_sim

            slo_samples.extend(samples_from_sim(r))
    if slo is None:
        return 0
    # One objective over the whole sweep: every simulated task interval
    # from every core count counts as a latency sample.
    return _evaluate_slo(slo, slo_samples, args)


def cmd_bench(args) -> int:
    from .perf import (
        compare_reports,
        discover,
        format_report,
        get_registry,
        load_report,
        run_suite,
        write_report,
    )

    if args.bench_cmd == "list":
        discover()
        registry = get_registry()
        for d in registry:
            print(f"{d.id:<28} [{d.group:<8}] {d.description}")
        print(f"{len(registry)} benchmarks registered")
        return 0

    if args.bench_cmd == "run":
        report = run_suite(
            args.ids or None, quick=args.quick, repeats=args.repeats,
            progress=None if args.no_progress else print,
        )
        path = write_report(report, path=args.output,
                            artifacts_dir=args.artifacts)
        print(format_report(report))
        print(f"wrote {path}")
        return 1 if any("error" in r for r in report["results"]) else 0

    if args.bench_cmd == "compare":
        loaded = {}
        for role, path in (("baseline", args.baseline), ("new", args.new)):
            with _ingest(f"{role} BENCH file "):
                loaded[role] = load_report(path)
        base, new = loaded["baseline"], loaded["new"]
        result = compare_reports(base, new, rel_floor=args.rel_floor,
                                 k_iqr=args.k_iqr)
        if args.markdown:
            out = result.markdown()
            if args.markdown == "-":
                print(out, end="")
            else:
                with open(args.markdown, "w") as fh:
                    fh.write(out)
                print(f"wrote markdown report to {args.markdown}")
        print(result.format())
        return 0 if args.warn_only else result.exit_code

    # report
    with _ingest():
        doc = load_report(args.path)
    print(format_report(doc))
    return 0


def cmd_obs(args) -> int:
    from .obs import format_flight_dump, load_flight_dump, validate_document
    from .obs.validate import load_json

    dump = args.obs_cmd == "dump"
    with _ingest():
        doc = (load_flight_dump if dump else load_json)(args.path)
    kind, problems = validate_document(
        doc, require_exec_tasks=getattr(args, "require_exec_tasks", False))
    if dump and not problems:
        print(format_flight_dump(doc, last=args.last))
        return 0
    if problems:
        print(f"{len(problems)} problem(s) in {args.path}:")
        for prob in problems:
            print(f"  {prob}")
        return 1
    print(f"{kind} ok: {args.path}")
    return 0


_EXPLAIN_OPTIONS = (
    *dataset_options(8_000), *TREE_OPTIONS, ("--theta", "theta", 0.7), TRAVERSER,
    ("--iterations", "config.num_iterations", 1),
    ("--partitions", "config.num_partitions", 8,
     "partitions / simulated processes for the cache and DES attributions"),
)
_TOP_OPTIONS = (*dataset_options(8_000), ("--iterations", "config.num_iterations", 4))


def cmd_explain(args) -> int:
    """Attributed gravity iteration + causal what-if report.

    Runs one (or more) Driver iterations with per-node attribution on,
    then prints where the traversal cost concentrates (hot subtrees),
    which partitions cause the cache misses (ghost-layer guidance), how
    the exec chunks balanced, the DES critical path, and a battery of
    causal what-if predictions replayed over the recorded event graph.
    """
    from functools import partial

    from .core.observers import Attribution, CommReplay
    from .perf import parse_whatif

    with _ingest():
        speedups = [parse_whatif(spec) for spec in args.whatif or ()]
    desc = description("gravity", _EXPLAIN_OPTIONS, args)
    desc["config"]["num_subtrees"] = args.partitions
    attribution, replay = Attribution(), CommReplay(critical_path=True)
    return run_app(args, desc, attribution, replay,
                   show=partial(_show_explain, attribution, replay, speedups))


def _show_explain(attribution, replay, speedups, driver, args, wall) -> int:
    from .obs import format_chunk_heatmap, validate_attribution
    from .perf import format_whatifs, standard_whatifs, what_if
    from .perf.whatif import VirtualSpeedup

    tree = driver.tree
    # merge the attributed iterations into one profile
    profile = attribution.profiles[0]
    for extra in attribution.profiles[1:]:
        profile.merge(extra)
    totals = profile.totals()
    print(f"attributed {args.iterations} gravity iteration(s), n={args.n}, "
          f"backend={args.backend}, {wall:.2f}s wall")
    print(f"  visits={totals['visits']:,}  mac_accepts={totals['mac_accepts']:,}"
          f"  pn_pairs={totals['pn_pairs']:,}  pp_pairs={totals['pp_pairs']:,}"
          f"  est cost {totals['cost_ns'] / 1e6:.3f} ms")

    print(f"\nhot subtrees (depth<={args.depth}, top {args.top}):")
    print(f"  {'node':>6} {'lvl':>3} {'parts':>6} {'cost':>12} {'share':>7} "
          f"{'visits':>9} {'pp':>12} {'pn':>12}")
    for row in profile.subtree_rollup(tree, depth=args.depth, top=args.top):
        print(f"  {row['node']:>6} {row['level']:>3} {row['particles']:>6} "
              f"{row['cost_ns'] / 1e6:>10.3f}ms {row['cost_frac']:>7.1%} "
              f"{row['visits']:>9,} {row['pp_pairs']:>12,} {row['pn_pairs']:>12,}")

    if profile.cache:
        c = profile.cache
        print(f"\ncache-miss attribution ({c['n_processes']} simulated "
              f"processes, {c['total_remote_touches']:,} remote touches, "
              f"{c['total_bytes'] / 1e6:.2f} MB):")
        for row in c["partitions"][:args.top]:
            tops = ", ".join(f"st{t['subtree']}×{t['touches']}"
                             for t in row["top_subtrees"])
            print(f"  partition {row['partition']:>3} (proc {row['process']}): "
                  f"{row['touches']:>7,} touches, {row['unique_groups']:>5} "
                  f"groups, {row['bytes'] / 1e3:>8.1f} kB   <- {tops}")
        print("  (partitions concentrating on few foreign subtrees are "
              "ghost-layer candidates)")

    print()
    print(format_chunk_heatmap(profile.chunks))

    # the comm replay of the last iteration: critical path + causal what-if
    res = replay.result
    print()
    print(res.critical_path.format())
    null = what_if(res.cp_graph, res.time, VirtualSpeedup(1.0))
    null_ok = null.predicted == res.time
    print(f"  null speedup (×1.0) reproduces makespan exactly: {null_ok} "
          f"({null.predicted:.9g}s vs {res.time:.9g}s)")
    whatifs = standard_whatifs(res.cp_graph, res.time)
    whatifs += [what_if(res.cp_graph, res.time, s) for s in speedups]
    whatifs.sort(key=lambda r: r.predicted)
    print()
    print(format_whatifs(whatifs, res.time))

    if args.json:
        doc = profile.to_dict(tree, depth=args.depth, top=args.top)
        doc["critical_path"] = res.critical_path.to_dict()
        doc["whatif"] = [r.to_dict() for r in whatifs]
        doc["null_speedup_exact"] = bool(null_ok)
        problems = validate_attribution(doc)
        with open(args.json, "w") as fh:
            json.dump(doc, fh)
        print(f"\nwrote attribution profile to {args.json}"
              + (f" ({len(problems)} validation problem(s)!)" if problems else ""))
        if problems:
            for prob in problems:
                print(f"  problem: {prob}", file=sys.stderr)
            return 1

    if args.trace:
        # attribution counter tracks ride along in the trace main writes
        events = driver.telemetry.tracer.events
        ts = max((e.get("ts", 0) + e.get("dur", 0) for e in events), default=0)
        events.extend(profile.counter_events(ts=ts, tree=tree, depth=args.depth))

    if not null_ok:
        print("error: null-speedup replay diverged from the DES makespan",
              file=sys.stderr)
        return 1
    return 0


def cmd_top(args) -> int:
    from .obs import Dashboard, follow_status_file, read_status_file

    dash = Dashboard()
    if args.source in APPS:
        from .core.observers import StatusFeed

        return run_app(args, description(args.source, _TOP_OPTIONS, args),
                       StatusFeed(dash), show=lambda *_: 0)

    # Source is a --status-file path written by another (possibly still
    # running) process.
    with _ingest():
        if args.follow:
            try:
                for snap in follow_status_file(args.source, poll=args.poll):
                    dash.update(snap)
            except KeyboardInterrupt:
                pass
            return 0
        snaps = read_status_file(args.source)
    if not snaps:
        raise BadInput(f"no status snapshots in {args.source}")
    dash.update(snaps[-1])
    return 0


def _serve_traffic_shape(args, rate: float):
    from .serve import TrafficShape

    return TrafficShape(
        rate=rate, duration=args.duration, burst_factor=args.overload,
        burst_window=(0.4, 0.6), think_tail=args.think_tail,
        deadline=args.query_deadline, deadline_frac=args.deadline_frac,
        ops=tuple(args.ops.split(",")), k=args.k,
    )


def cmd_serve(args) -> int:
    import asyncio
    import signal as _signal

    from .serve import (
        AdmissionConfig,
        QueryService,
        ServeConfig,
        ServiceModel,
        SocketServer,
        TokenBucket,
        accounting_delta,
        calibrate_capacity,
        generate_traffic,
        run_trace,
        simulate_service,
    )
    from .serve.batcher import BatchPolicy

    if args.resume:
        dataset = {"checkpoint": args.resume}
    else:
        dataset = {"kind": args.dataset, "n": args.n, "seed": args.seed}
    dataset["tree_type"] = args.tree
    dataset["bucket_size"] = args.bucket
    admission = AdmissionConfig(
        queue_capacity=args.queue_cap, rate=args.rate, burst=args.burst,
        slo=args.shed_slo, default_deadline=args.deadline)
    batch_max = args.batch_max or 4 * args.bucket
    cfg = ServeConfig(
        dataset=dataset, admission=admission, batch_max=batch_max,
        batch_wait=args.batch_wait, executor=args.executor,
        workers=args.workers or 2, exec_deadline=args.exec_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        checkpoint_dir=args.checkpoint_dir,
        status_every=args.status_every,
    )
    with _ingest():
        slo = _slo_spec(args)
        # --sim is the DES alone: no tree, so million-user shapes are cheap
        service = None if args.sim else QueryService(cfg)
    if args.status_file and service is not None:
        from .obs.top import StatusWriter

        service.add_status_consumer(StatusWriter(args.status_file).update)
    box = service and service.state.particles.bounding_box()

    async def replay_trace(trace, pace: bool, spec=None):
        result = await run_trace(service, trace, pace=pace, slo=spec)
        await service.stop()
        return result

    if args.sim or args.validate:
        # the DES model of admission + shedding; --validate also replays the
        # same trace, unpaced, through the real server
        shape = _serve_traffic_shape(args, args.bench_rate or (1000.0 if args.sim else 400.0))
        lo, hi = (np.zeros(3), np.ones(3)) if args.sim else (box.lo, box.hi)
        trace = generate_traffic(shape, lo, hi, seed=args.traffic_seed,
                                 max_queries=args.queries)
        if args.queries and len(trace) >= args.queries:
            print(f"note: trace capped at {args.queries} queries", file=sys.stderr)
        sim = simulate_service(
            trace, admission, BatchPolicy(batch_max, 0.0),
            ServiceModel(straggler_prob=args.sim_straggler,
                         crash_prob=args.sim_crash),
            seed=args.traffic_seed)
        if args.sim:
            print(json.dumps(sim.to_dict(), indent=2))
            return 0
        real = asyncio.run(replay_trace(trace, pace=False))
        delta = accounting_delta(real.accounting, sim.accounting)
        print(json.dumps({"sim": sim.accounting, "real": real.accounting,
                          "delta": delta}, indent=2))
        if delta:
            print("error: DES and real accounting disagree", file=sys.stderr)
            return 1
        print(f"accounting agrees across {len(trace)} queries "
              f"(served={real.accounting['served']}, "
              f"shed={real.accounting['shed_total']}, "
              f"expired={real.accounting['expired']})")
        return 0

    if args.bench:
        probe = generate_traffic(
            _serve_traffic_shape(args, 1000.0), box.lo, box.hi,
            seed=args.traffic_seed + 1, max_queries=batch_max)
        capacity = calibrate_capacity(service, probe)
        base_rate = args.bench_rate or capacity
        if service.admission.bucket is None:
            # shed explicitly at measured capacity rather than queueing
            service.admission.bucket = TokenBucket(
                capacity, burst=max(8.0, 0.1 * capacity))
        trace = generate_traffic(_serve_traffic_shape(args, base_rate), box.lo, box.hi,
                                 seed=args.traffic_seed, max_queries=args.queries)
        result = asyncio.run(replay_trace(trace, pace=True, spec=slo))
        doc = result.to_dict()
        doc["capacity_qps"] = round(capacity, 1)
        doc["offered_qps"] = round(base_rate, 1)
        print(json.dumps(doc, indent=2))
        return 0 if slo is None else _evaluate_slo(slo, result.latencies, args)

    # server mode: run until SIGTERM/SIGINT, then drain + checkpoint
    socket_path, port = args.socket, args.port
    if socket_path is None and port is None:
        socket_path = "repro-serve.sock"

    async def _serve() -> None:
        server = SocketServer(service, socket_path=socket_path, port=port)
        await server.start()
        print(f"serving {service.state.n_particles} particles at "
              f"{server.where} (executor={cfg.executor}, "
              f"batch_max={service.batcher.policy.batch_max})", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("drain: admission stopped, settling in-flight batches",
              flush=True)
        path = await service.drain()
        if path:
            print(f"wrote drain checkpoint {path} "
                  f"(restart with `repro serve --resume {path}`)", flush=True)
        await server.stop()
        print(json.dumps(service.admission.counters.to_dict()), flush=True)

    asyncio.run(_serve())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def batch(p: argparse.ArgumentParser, groups) -> None:
        """Every run flag group, in one order; the optional ones (see
        ``repro.apps.App``) only where ``groups`` names them."""
        for name, add in (("slo", _add_slo), ("critical_path", _add_critical_path),
                          ("telemetry", _add_telemetry), ("faults", _add_faults),
                          ("checkpoint", _add_checkpoint), ("parallel", _add_parallel)):
            if name in (*groups, "telemetry", "checkpoint", "parallel"):
                add(p)
        p.set_defaults(fn=run_app)

    for name, app in APPS.items():
        p = sub.add_parser(name, help=app.help)
        for option in app.options:
            declare(p, *option)
        batch(p, app.groups)

    r = sub.add_parser("resume", help="resume a run from a checkpoint file")
    r.add_argument("checkpoint", help="path to a ckpt_*.npz checkpoint")
    r.add_argument("--iterations", type=int, default=None,
                   help="override the total iteration count recorded in the "
                        "checkpoint (absolute, not additional)")
    batch(r, ("faults",))

    a = sub.add_parser(
        "audit", help="byte-level comparison of two npz state archives "
                      "(checkpoints or --save-state snapshots), or "
                      "--shm to sweep orphaned shared-memory segments")
    a.add_argument("a", nargs="?", default=None)
    a.add_argument("b", nargs="?", default=None)
    a.add_argument("--shm", action="store_true",
                   help="sweep /dev/shm for arena segments whose owning "
                        "process is dead (left by SIGKILLed/OOM-killed "
                        "runs) and unlink them")
    a.add_argument("--shm-prefix", default="repro", metavar="PREFIX",
                   help="segment name prefix to match (default: repro)")
    a.add_argument("--dry-run", action="store_true",
                   help="with --shm: report orphans without unlinking")
    a.set_defaults(fn=cmd_audit)

    sc = sub.add_parser("scale", help="simulated strong-scaling sweep")
    sc.add_argument("--n", type=int, default=20_000)
    sc.add_argument("--seed", type=int, default=7)
    sc.add_argument("--partitions", type=int, default=256)
    sc.add_argument("--machine", default="Stampede2", choices=["Summit", "Stampede2", "Bridges2"])
    sc.add_argument("--cache", default="WaitFree",
                    choices=["WaitFree", "XWrite", "Sequential", "PerThread", "SingleWriter"])
    sc.add_argument("--workers", type=int, default=0, help="workers per process (0 = full node)")
    sc.add_argument("--cores", type=int, nargs="+", default=[24, 96, 384, 1536])
    _add_telemetry(sc)
    _add_slo(sc)
    _add_faults(sc)
    _add_critical_path(sc)
    sc.set_defaults(fn=cmd_scale)

    b = sub.add_parser("bench", help="benchmark harness (run/list/compare/report)")
    b.set_defaults(fn=cmd_bench)
    bsub = b.add_subparsers(dest="bench_cmd", required=True)

    br = bsub.add_parser("run", help="run registered benchmarks, write BENCH_*.json")
    br.add_argument("ids", nargs="*",
                    help="benchmark IDs or globs (default: all), e.g. 'des.*'")
    br.add_argument("--quick", action="store_true",
                    help="scaled-down workloads, fewer repeats (CI smoke)")
    br.add_argument("--repeats", type=int, default=None,
                    help="override the per-benchmark repeat count")
    br.add_argument("--output", "-o", default=None,
                    help="output path (default: BENCH_<timestamp>.json)")
    br.add_argument("--artifacts", default=None,
                    help="also write one JSON artifact per benchmark here")
    br.add_argument("--no-progress", action="store_true")

    bl = bsub.add_parser("list", help="list registered benchmarks")

    bc = bsub.add_parser("compare", help="noise-aware regression check of two BENCH files")
    bc.add_argument("baseline")
    bc.add_argument("new")
    bc.add_argument("--rel-floor", type=float, default=0.25,
                    help="relative regression floor (default 0.25)")
    bc.add_argument("--k-iqr", type=float, default=3.0,
                    help="noise multiplier on the larger IQR (default 3.0)")
    bc.add_argument("--markdown", metavar="PATH", default=None,
                    help="write a markdown report ('-' for stdout)")
    bc.add_argument("--warn-only", action="store_true",
                    help="always exit 0 (CI smoke against a stale baseline)")

    bp = bsub.add_parser("report", help="render one BENCH file as a console table")
    bp.add_argument("path")

    o = sub.add_parser("obs", help="observability utilities "
                                   "(flight dumps, trace/SLO validation)")
    o.set_defaults(fn=cmd_obs)
    osub = o.add_subparsers(dest="obs_cmd", required=True)
    od = osub.add_parser("dump", help="pretty-print a flight-recorder dump")
    od.add_argument("path", help="a dump written by --flight or on crash")
    od.add_argument("--last", type=int, default=None, metavar="N",
                    help="show only the last N events")
    ov = osub.add_parser("validate",
                         help="check a Chrome trace, SLO report, flight dump "
                              "or attribution profile (picked by the "
                              "document's traceEvents / schema)")
    ov.add_argument("path")
    ov.add_argument("--require-exec-tasks", action="store_true",
                    help="traces: also require exec.task spans, each nested "
                         "inside its owning phase span")

    e = sub.add_parser(
        "explain",
        help="traversal attribution & causal what-if profiler: hot "
             "subtrees, per-partition cache misses, chunk imbalance, "
             "critical path, and predicted makespan deltas")
    for option in _EXPLAIN_OPTIONS:
        declare(e, *option)
    e.add_argument("--depth", type=int, default=3, metavar="D",
                   help="subtree rollup depth cutoff (default 3)")
    e.add_argument("--top", type=int, default=8, metavar="K",
                   help="rows per table (default 8)")
    e.add_argument("--whatif", action="append", metavar="SPEC",
                   help="extra virtual speedup to evaluate, e.g. "
                        "'latency ×0.5' or 'kind=compute,resource=p3/* *0.8' "
                        "(repeatable)")
    e.add_argument("--json", metavar="PATH", default=None,
                   help="write the full repro.attr/1 profile (validate with "
                        "`repro obs validate`)")
    e.add_argument("--trace", metavar="PATH", default=None,
                   help="write a Perfetto trace with attribution counter "
                        "tracks alongside the spans")
    _add_parallel(e)
    e.set_defaults(fn=cmd_explain)

    sv = sub.add_parser(
        "serve",
        help="online query service over a resident tree (kNN/range/density "
             "with admission control, load shedding, and graceful drain)")
    for option in (*dataset_options(20_000), *TREE_OPTIONS):
        declare(sv, *option)
    sv.add_argument("--dataset", default="clumps",
                    choices=["clumps", "cube", "plummer", "disk"],
                    help="generator for the resident dataset")
    sv.add_argument("--resume", metavar="CKPT", default=None,
                    help="restore the resident dataset from a drain "
                         "checkpoint (bit-identical warm restart)")
    sv.add_argument("--socket", metavar="PATH", default=None,
                    help="serve JSONL queries on a Unix socket "
                         "(default: repro-serve.sock)")
    sv.add_argument("--port", type=int, default=None, metavar="N",
                    help="serve JSONL queries on 127.0.0.1:N instead of a "
                         "Unix socket (0 = ephemeral)")
    adm = sv.add_argument_group("admission control")
    adm.add_argument("--rate", type=float, default=None, metavar="QPS",
                     help="token-bucket admission rate (default: unlimited; "
                          "--bench defaults it to measured capacity)")
    adm.add_argument("--burst", type=float, default=None, metavar="TOKENS",
                     help="token-bucket depth (default max(1, rate))")
    adm.add_argument("--queue-cap", type=int, default=1024, metavar="N",
                     help="bounded admission queue capacity (default 1024)")
    adm.add_argument("--shed-slo", metavar="SPEC", default=None,
                     help="shed new work while the trailing served-latency "
                          "window burns this SLO (PR 6 grammar, e.g. "
                          "'lat<20ms,target=0.95,burn=2')")
    adm.add_argument("--deadline", type=float, default=None, metavar="SECS",
                     help="default per-query deadline; queued work past it "
                          "is dropped before execution")
    ex = sv.add_argument_group("execution")
    ex.add_argument("--batch-max", type=int, default=None, metavar="N",
                    help="micro-batch size (default 4 x bucket size)")
    ex.add_argument("--batch-wait", type=float, default=0.002, metavar="SECS",
                    help="linger for stragglers before cutting a sub-max "
                         "batch (default 2ms)")
    ex.add_argument("--executor", default="inline",
                    choices=["inline", "threads", "processes"],
                    help="batch execution mode (supervised for pools)")
    ex.add_argument("--workers", type=int, default=0, metavar="W",
                    help="pool worker count (default 2)")
    ex.add_argument("--exec-deadline", type=float, default=None, metavar="SECS",
                    help="per-chunk supervisor deadline")
    ex.add_argument("--breaker-threshold", type=int, default=3, metavar="K",
                    help="consecutive degraded batches before the circuit "
                         "breaker falls back to serial (default 3)")
    ex.add_argument("--breaker-cooldown", type=float, default=5.0,
                    metavar="SECS", help="breaker open time before a "
                                         "half-open trial (default 5)")
    sv.add_argument("--checkpoint-dir", default="checkpoints", metavar="DIR",
                    help="where the SIGTERM drain checkpoint is written")
    sv.add_argument("--status-every", type=float, default=1.0, metavar="SECS",
                    help="status frame interval for --status-file (default 1)")
    mode = sv.add_mutually_exclusive_group()
    mode.add_argument("--bench", action="store_true",
                      help="open-loop load bench against this server "
                           "(Poisson + burst + heavy-tailed think times), "
                           "gated by --slo")
    mode.add_argument("--validate", action="store_true",
                      help="replay one seeded trace through the DES model "
                           "and the real server; exit 1 unless the "
                           "served/shed/expired accounting matches")
    mode.add_argument("--sim", action="store_true",
                      help="DES model only (no tree): explore admission + "
                           "shedding under large traffic shapes")
    tr = sv.add_argument_group("traffic shape (--bench/--validate/--sim)")
    tr.add_argument("--bench-rate", type=float, default=None, metavar="QPS",
                    help="offered base rate (default: measured capacity for "
                         "--bench, 400 for --validate, 1000 for --sim)")
    tr.add_argument("--overload", type=float, default=4.0, metavar="X",
                    help="burst multiplier over the base rate in the middle "
                         "fifth of the run (default 4)")
    tr.add_argument("--duration", type=float, default=3.0, metavar="SECS",
                    help="trace duration (default 3)")
    tr.add_argument("--queries", type=int, default=None, metavar="N",
                    help="hard cap on generated queries")
    tr.add_argument("--think-tail", type=float, default=0.0, metavar="P",
                    help="probability of a heavy-tailed (Pareto) think-time "
                         "gap after an arrival")
    tr.add_argument("--query-deadline", type=float, default=None,
                    metavar="SECS", help="deadline carried by a fraction of "
                                         "queries (see --deadline-frac)")
    tr.add_argument("--deadline-frac", type=float, default=0.0, metavar="F",
                    help="fraction of queries carrying --query-deadline")
    tr.add_argument("--ops", default="knn", metavar="LIST",
                    help="comma list of ops to draw from (knn,range,density)")
    tr.add_argument("--k", type=int, default=8, help="k for knn/density queries")
    tr.add_argument("--traffic-seed", type=int, default=0, metavar="SEED")
    tr.add_argument("--sim-straggler", type=float, default=0.0, metavar="P",
                    help="DES model: per-batch straggler probability")
    tr.add_argument("--sim-crash", type=float, default=0.0, metavar="P",
                    help="DES model: per-batch worker-crash probability")
    _add_telemetry(sv)
    _add_slo(sv)
    sv.set_defaults(fn=cmd_serve)

    t = sub.add_parser("top", help="live terminal dashboard")
    t.add_argument("source",
                   help=f"pipeline to run live ({'|'.join(APPS)}), or the path "
                        "of a --status-file written by another run")
    for option in _TOP_OPTIONS:
        declare(t, *option)
    t.add_argument("--follow", action="store_true",
                   help="poll the status file and repaint on new snapshots")
    t.add_argument("--poll", type=float, default=0.5, metavar="SECS",
                   help="poll interval for --follow (default 0.5)")
    _add_parallel(t)
    t.set_defaults(fn=cmd_top)

    args = parser.parse_args(argv)
    from .obs import Telemetry, set_telemetry

    # one telemetry session per command: on with any telemetry flag, and
    # always for explain and top (attribution and the dashboard read it)
    opt = vars(args).get
    telemetry = None
    if args.fn in (cmd_explain, cmd_top) or any(
            opt(flag) for flag in ("trace", "metrics", "report", "flight")):
        telemetry = Telemetry()
        if opt("flight"):
            telemetry.flight.arm(args.flight)
    set_telemetry(telemetry)
    try:
        # an output path the run could not write fails now, not after the run
        with _ingest("could not write telemetry output: "):
            for path in filter(None, map(opt, ("trace", "metrics", "flight"))):
                open(path, "a").close()
        rc = args.fn(args)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_telemetry(None)
    _finish_telemetry(telemetry, args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
