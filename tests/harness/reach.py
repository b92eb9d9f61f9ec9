"""Which functions in ``src/repro`` does anything run?  (standard library only)

The audit copies the checkout to a temporary directory and drops a probe
``sitecustomize.py`` into the copy's ``src/``.  Every Python process that
puts that ``src/`` on its path — pytest, the CLI, ``bench_e2e`` children
(``run.py`` resets ``PYTHONPATH`` to ``src/``), spawned and forked exec
workers — then records, through ``sys.setprofile`` and
``threading.setprofile``, each ``repro`` function the first time it is
entered.  Each pid appends to its own file as it goes, because forked
workers leave through ``os._exit`` and never run ``atexit``.  A signal
handler that raises while the profile hook is running (a SIGINT landing
mid-hook) switches the probe off for the rest of that process, so what runs
only after an interrupt can read as test-only; such entries carry a reason.

The runs (:func:`runs`) are tier-1 including ``slow``, ``bench_e2e/run.py
--smoke``, every ``examples/*.py``, ``repro bench run --quick``, the paper
benches (``REPRO_BENCH_QUICK=1 pytest benchmarks``) and the CLI with every
flag that selects a code path.  Tier-1 is the *tests* run; the rest are the
*product* runs.

The records are diffed against every function compiled from ``src/repro``
(nested ones found by walking ``co_consts``; comprehensions, lambdas and
class bodies are not functions here).  The report, ``reach_report.json``
next to this file, has two lists:

* ``unreached`` — nothing enters the function;
* ``tests_only`` — only tier-1 enters it.

Every entry carries a one-line reason for keeping it, starting with its
kind: ``paper:`` (a section, figure or table), ``workload:`` (a
BENCHMARK.json workload), ``flag:`` (a CLI flag), ``oracle:`` (a harness
oracle or invariant checker) or ``interface:`` (an interface default or
hook other code overrides).  Anything else is deleted.

Usage::

    python tests/harness/reach.py            # probe, then rewrite the report
    python tests/harness/reach.py --check    # probe, exit 1 on an unresolved
                                             # entry or a stale kept entry

Every invocation probes every run from scratch; when a run times out its
records are cut short and the report is not rewritten.  A command that exits
with the wrong code is only reported: what it reached still counts.  Under
the profiler tier-1 alone takes about ten minutes on two vCPUs.  Needs
Python 3.11 or later (``code.co_qualname``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

REPO = pathlib.Path(__file__).resolve().parents[2]
REPORT = pathlib.Path(__file__).with_name("reach_report.json")
REASON_KINDS = ("paper", "workload", "flag", "oracle", "interface")
TIMED_OUT = "timed out"
#: CO_OPTIMIZED: set on functions (and comprehensions), not on class bodies
#: or modules.
_CO_OPTIMIZED = 0x1

PROBE = r'''
import os
import sys
import threading

_DIR = os.environ.get("REPRO_REACH_DIR")
if _DIR:
    _MARK = os.sep + "src" + os.sep + "repro" + os.sep
    _seen = {}
    _out = [None, None]

    def _record(code):
        fn = code.co_filename
        if not os.path.isabs(fn):
            fn = os.path.abspath(fn)
        i = fn.rfind(_MARK)
        if i < 0:
            return
        pid = os.getpid()
        if _out[0] != pid:
            _out[0] = pid
            _out[1] = os.open(os.path.join(_DIR, f"{pid}.txt"),
                              os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        line = f"{fn[i + 5:]}::{code.co_qualname}\n"
        os.write(_out[1], line.encode())

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # keyed by id and holding the code object, so an id is never reused
            if id(code) not in _seen:
                _seen[id(code)] = code
                _record(code)

    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


@dataclass
class Run:
    """One product or test run inside the copy.  ``argv`` is a list of
    commands run in order (one starting with ``"!"`` is expected to exit
    non-zero); ``server`` starts a ``repro serve`` process in the
    background first and stops it with SIGTERM after them."""

    label: str
    argv: list[list[str]]
    tests: bool = False
    env: dict[str, str] = field(default_factory=dict)
    timeout: float = 900.0
    server: list[str] | None = None


#: Runs a checkpointing gravity run, sends it SIGINT as soon as its first
#: checkpoint is on disk, and exits 0 iff it stopped with 128 + SIGINT.
INTERRUPT = """
import os, signal, subprocess, sys, time
proc = subprocess.Popen([sys.executable, "-m", "repro", "gravity", "--n", "20000",
                         "--iterations", "200", "--checkpoint-every", "1",
                         "--checkpoint-dir", "ck_interrupted"])
while proc.poll() is None and not os.path.exists("ck_interrupted/ckpt_000001.npz"):
    time.sleep(0.05)
proc.send_signal(signal.SIGINT)
sys.exit(0 if proc.wait() == 128 + signal.SIGINT else 1)
"""


def _repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _fails(*args: str) -> list[str]:
    """A CLI command whose exit code is non-zero by design."""
    return ["!", *_repro(*args)]


def _cli_runs() -> list[Run]:
    """The CLI with every flag that selects a code path (the CI jobs'
    invocations are a subset).  Every command runs in the copy's root, in
    order, so later ones read what earlier ones wrote."""
    small = ["--n", "1500"]
    g = ["gravity", *small]
    apps = {
        "gravity": [*g, "--iterations", "2", "--dt", "1e-3"],
        "sph": ["sph", "--n", "800", "--iterations", "2", "--dt", "1e-4"],
        "knn": ["knn", *small, "--iterations", "2"],
        "disk": ["disk", "--n", "800", "--steps", "2"],
        "correlation": ["correlation", "--n", "600"],
    }
    runs = []
    # checkpoint -> resume -> audit for every app (and one app-level save)
    for app, argv in apps.items():
        runs.append(Run(f"cli-{app}", [
            _repro(*argv, "--save-state", f"{app}_base.npz"),
            _repro(*argv, "--checkpoint-every", "1", "--checkpoint-dir", f"ck_{app}"),
            _repro("resume", f"ck_{app}/ckpt_000001.npz", "--save-state", f"{app}_resumed.npz"),
        ]))
    runs.append(Run("cli-gravity-flags", [
        _repro(*g, "--tree", "kd", "--quadrupole", "--check"),
        _repro(*g, "--tree", "longest", "--traverser", "per-bucket"),
        _repro(*g, "--traverser", "transposed", "--bucket", "8"),
        _repro(*g, "--iterations", "2", "--trace", "t.json", "--metrics", "m.json",
               "--report", "--flight", "flight.json", "--status-file", "status.jsonl",
               "--slo", "lat<300s,target=0.95", "--slo-report", "slo.json"),
        _repro(*g, "--metrics", "m.csv", "--critical-path"),
        _repro(*g, "--faults", "drop=0.05,fail=0.1,seed=3"),
        _repro(*g, "--faults", "drop=0.02,dup=0.05,jitter=0.3,straggler=0.25x4,seed=1"),
        _repro(*g, "--faults", "crash=0.5@0.25,seed=4", "--trace", "crash.json"),
        _repro(*g, "--backend", "threads", "--workers", "2", "--trace", "t_threads.json"),
        _repro(*g, "--backend", "processes", "--workers", "2", "--trace", "t_procs.json"),
        _repro(*g, "--backend", "threads", "--workers", "2",
               "--exec-faults", "hang=0.25@10,seed=5", "--chunk-deadline", "0.5"),
        _repro(*g, "--backend", "processes", "--workers", "2",
               "--exec-faults", "kill=0.25,seed=3", "--max-chunk-retries", "4"),
        _repro(*g, "--backend", "processes", "--workers", "2",
               "--exec-faults", "hang=0.2@30,err=0.2,seed=5", "--chunk-deadline", "1.0"),
        _repro(*g, "--backend", "threads"),
        # SIGINT once the first checkpoint exists: the final checkpoint and
        # the 128 + N exit code
        [sys.executable, "-c", INTERRUPT],
        _repro("sph", "--n", "800", "--baseline", "--faults", "drop=0.05,fail=0.1,seed=3"),
        _repro("knn", *small, "--faults", "drop=0.05,seed=3"),
        # the threads backend's shared tree cache fills under transient
        # failures and crashes, on kNN's real traversal
        _repro("knn", *small, "--faults", "fail=0.2,crash=0.5@0.25,seed=4",
               "--backend", "threads", "--workers", "2"),
        _repro("disk", "--n", "800", "--steps", "2", "--critical-path"),
        _repro("audit", "gravity_base.npz", "gravity_resumed.npz"),
        _fails("audit", "gravity_base.npz", "sph_base.npz"),
        _repro("audit", "--shm", "--dry-run"),
        _repro("audit", "--shm"),
        _repro("obs", "validate", "t_threads.json", "--require-exec-tasks"),
        _repro("obs", "validate", "t_procs.json", "--require-exec-tasks"),
        _repro("obs", "dump", "flight.json", "--last", "10"),
        _repro("obs", "validate", "flight.json"),
        _repro("obs", "validate", "slo.json"),
        _repro("top", "status.jsonl"),
        _repro("top", "gravity", "--n", "1000", "--iterations", "2"),
    ]))
    runs.append(Run("cli-top-follow", [
        [sys.executable, "-c",
         "import signal, sys; from repro.__main__ import main; "
         "signal.signal(signal.SIGALRM, signal.default_int_handler); "
         "signal.setitimer(signal.ITIMER_REAL, 2.0); "
         "sys.exit(main(['top', 'status.jsonl', '--follow', '--poll', '0.1']))"],
    ]))
    runs.append(Run("cli-scale-explain-bench", [
        _repro("scale", "--n", "2000", "--partitions", "32", "--cores", "96", "192",
               "--trace", "des.json", "--metrics", "des.csv",
               "--slo", "lat<0.5ms,target=0.99,burn=1.0"),
        _repro("scale", "--n", "2000", "--partitions", "32", "--cores", "96",
               "--faults", "straggler=0.3x8,seed=3", "--machine", "Summit",
               "--cache", "XWrite", "--workers", "4"),
        _repro("scale", "--n", "2000", "--partitions", "32", "--cores", "48",
               "--machine", "Bridges2", "--cache", "PerThread"),
        # retries exhausted: the iteration fails with its counters
        _repro("scale", "--n", "2000", "--partitions", "32", "--cores", "96",
               "--faults", "fail=1.0,retries=1,seed=1"),
        _repro("explain", "--n", "2000", "--backend", "threads", "--workers", "2",
               "--whatif", "latency ×0.5", "--whatif", "kind=compute,resource=p3/* *0.8",
               "--json", "attr.json", "--trace", "attr_trace.json"),
        _repro("explain", "--n", "2000", "--tree", "kd", "--backend", "processes",
               "--workers", "2", "--depth", "2", "--top", "4"),
        _repro("obs", "validate", "attr.json"),
        _repro("obs", "validate", "attr_trace.json"),
        _repro("bench", "list"),
        _repro("bench", "run", "--quick", "--repeats", "1", "meta.*", "-o", "b1.json",
               "--artifacts", "artifacts", "--no-progress"),
        _repro("bench", "run", "--quick", "--repeats", "1", "meta.*", "-o", "b2.json"),
        _repro("bench", "compare", "b1.json", "b1.json", "--markdown", "-"),
        _repro("bench", "compare", "--warn-only", "b1.json", "b2.json"),
        _repro("bench", "report", "b1.json"),
    ]))
    runs.append(Run("cli-serve", [
        _repro("serve", "--n", "3000", "--bench", "--overload", "4", "--duration", "1",
               "--queue-cap", "256", "--slo", "lat<60s,target=0.5,burn=10",
               "--slo-report", "serve_slo.json", "--flight", "serve_bench_flight.json"),
        _repro("serve", "--n", "3000", "--validate", "--bench-rate", "600", "--overload", "3",
               "--duration", "1", "--rate", "150", "--burst", "20", "--query-deadline", "0",
               "--deadline-frac", "0.25"),
        _repro("serve", "--n", "3000", "--bench", "--duration", "1", "--executor", "threads",
               "--workers", "2", "--shed-slo", "lat<1ms,target=0.99,burn=1.0",
               "--deadline", "0.5", "--ops", "knn,range,density"),
        _repro("serve", "--n", "3000", "--bench", "--duration", "1", "--executor", "processes",
               "--workers", "2", "--exec-deadline", "5", "--dataset", "plummer"),
        _repro("serve", "--sim", "--duration", "1", "--sim-straggler", "0.1",
               "--sim-crash", "0.05", "--queries", "500", "--think-tail", "0.1"),
    ]))
    probe = [sys.executable, str(REPO / ".github/scripts/serve_probe.py")]
    runs.append(Run("cli-serve-socket", [
        [*probe, "burst", "serve.sock"],
        [*probe, "probe", "serve.sock", "answers1.json"],
    ], server=_repro("serve", "--n", "3000", "--rate", "200", "--burst", "8",
                     "--socket", "serve.sock", "--checkpoint-dir", "sck1",
                     "--status-file", "serve_status.jsonl", "--flight", "serve_flight.json")))
    runs.append(Run("cli-serve-pool", [
        [*probe, "mixed", "serve_pool.sock"],
    ], server=_repro("serve", "--n", "3000", "--executor", "processes", "--workers", "2",
                     "--socket", "serve_pool.sock", "--checkpoint-dir", "sck_pool")))
    runs.append(Run("cli-serve-resume", [
        [*probe, "probe", "serve2.sock", "answers2.json"],
        _repro("top", "serve_status.jsonl"),
    ], server=_repro("serve", "--resume", "sck1/serve_ckpt.npz", "--rate", "200",
                     "--burst", "8", "--socket", "serve2.sock", "--checkpoint-dir", "sck2")))
    runs.append(Run("cli-serve-tcp", [
        [sys.executable, "-c",
         "import asyncio; from repro.serve.server import socket_query; "
         "print(asyncio.run(socket_query('tcp:127.0.0.1:47123', "
         "[{'id': 1, 'op': 'knn', 'point': [0.1, 0.2, 0.3], 'k': 4}, "
         "{'id': 2, 'op': 'range', 'point': [0, 0, 0], 'radius': 0.2}, "
         "{'id': 3, 'op': 'density', 'point': [0, 0, 0], 'k': 8}])))"],
    ], server=_repro("serve", "--n", "2000", "--port", "47123",
                     "--checkpoint-dir", "sck3")))
    return runs


def runs() -> list[Run]:
    py = sys.executable
    out = [Run("tier1", [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]],
               tests=True, timeout=3600)]
    out.append(Run("bench_e2e-smoke", [[py, "bench_e2e/run.py", "--smoke"]], timeout=1800))
    for ex in sorted((REPO / "examples").glob("*.py")):
        out.append(Run(f"example-{ex.stem}", [[py, str(pathlib.Path("examples") / ex.name)]],
                       timeout=1500))
    out.append(Run("bench-quick", [_repro("bench", "run", "--quick", "--no-progress",
                                          "-o", "BENCH_quick.json")], timeout=3600))
    out.append(Run("paper-benches", [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                      "benchmarks"]],
                   env={"REPRO_BENCH_QUICK": "1"}, timeout=3600))
    return out + _cli_runs()


# -- probing ---------------------------------------------------------------

def _copy_checkout(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache",
                                    ".hypothesis")
    shutil.copytree(REPO, dest, ignore=ignore)
    (dest / "src" / "sitecustomize.py").write_text(PROBE)


def _wait_for_server(proc: subprocess.Popen, deadline: float) -> None:
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line or line.startswith("serving "):
            return
    raise TimeoutError("server did not come up")


def _probe_run(run: Run, copy: pathlib.Path, records: pathlib.Path) -> list[str]:
    """Run one entry of :func:`runs` under the probe; returns failure notes
    (a failed command is reported, not fatal: what it reached still counts)."""
    out = records / run.label
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **run.env, "PYTHONPATH": str(copy / "src"),
           "REPRO_REACH_DIR": str(out), "PYTHONUNBUFFERED": "1"}
    notes = []
    deadline = time.monotonic() + run.timeout
    server = None
    if run.server is not None:
        server = subprocess.Popen(run.server, cwd=copy, env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        _wait_for_server(server, deadline)
    log = out / "output.log"
    try:
        for argv in run.argv:
            expect_fail = argv[0] == "!"
            argv = argv[1:] if expect_fail else argv
            try:
                with open(log, "a") as fh:
                    fh.write(f"$ {' '.join(argv)}\n")
                    fh.flush()
                    rc = subprocess.run(argv, cwd=copy, env=env,
                                        stdout=fh, stderr=subprocess.STDOUT,
                                        timeout=max(deadline - time.monotonic(), 1.0)).returncode
            except subprocess.TimeoutExpired:
                notes.append(f"{run.label}: {TIMED_OUT} in {' '.join(argv[-4:])}")
                break
            if (rc != 0) != expect_fail:
                tail = log.read_text().strip().splitlines()[-3:]
                notes.append(f"{run.label}: exit {rc} from {' '.join(argv[-4:])}: "
                             + " | ".join(t[:160] for t in tail))
    finally:
        if server is not None:
            server.send_signal(signal.SIGTERM)
            try:
                server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.communicate()
    return notes


def probe(records: pathlib.Path) -> list[str]:
    """Run every entry of :func:`runs` under the probe, into ``records``."""
    notes = []
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        _copy_checkout(copy)
        for run in runs():
            t0 = time.monotonic()
            print(f"[reach] {run.label} ...", end="", flush=True)
            notes += _probe_run(run, copy, records)
            print(f" {time.monotonic() - t0:.0f}s", flush=True)
    return notes


def reached(records: pathlib.Path) -> tuple[set[str], set[str]]:
    """Functions entered by the tests run, and by any product run."""
    tests, product = set(), set()
    for run in runs():
        d = records / run.label
        into = tests if run.tests else product
        for f in d.glob("*.txt"):
            into.update(line for line in f.read_text().splitlines() if line)
    return tests, product


# -- the static side -------------------------------------------------------

def functions(src: pathlib.Path = REPO / "src") -> set[str]:
    """``repro/path.py::qualname`` of every function compiled from
    ``src/repro``."""
    found = set()

    def walk(code, rel):
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                if const.co_flags & _CO_OPTIMIZED and not const.co_name.startswith("<"):
                    found.add(f"{rel}::{const.co_qualname}")
                walk(const, rel)

    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        walk(compile(path.read_text(), str(path), "exec"), rel)
    return found


# -- the report ------------------------------------------------------------

def classify(records: pathlib.Path) -> dict[str, set[str]]:
    defined = functions()
    tests, product = reached(records)
    return {"unreached": defined - tests - product,
            "tests_only": (defined & tests) - product}


def _reason_ok(reason: str) -> bool:
    kind, sep, text = reason.partition(":")
    return bool(sep) and kind in REASON_KINDS and bool(text.strip())


def problems(report: dict, found: dict[str, set[str]], defined: set[str]) -> list[str]:
    out = []
    for section, names in found.items():
        kept = report.get(section, {})
        for name in sorted(names):
            reason = kept.get(name, "")
            if not _reason_ok(reason):
                out.append(f"{section}: {name} has no reason ({reason!r})")
    for section in found:
        for name in sorted(report.get(section, {})):
            if name not in defined:
                out.append(f"{section}: kept entry {name} no longer exists")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on an entry without a reason or a stale kept entry")
    args = ap.parse_args(argv)
    if sys.version_info < (3, 11):
        ap.exit(2, "reach.py needs Python 3.11 or later (code.co_qualname)\n")

    with tempfile.TemporaryDirectory(prefix="repro-reach-records-") as tmp:
        records = pathlib.Path(tmp)
        notes = probe(records)
        for note in notes:
            print(f"[reach] note: {note}")
        found = classify(records)
    report = json.loads(REPORT.read_text()) if REPORT.exists() else {}
    defined = functions()
    if args.check:
        bad = problems(report, found, defined)
        for note in bad:
            print(note)
        now_reached = {f"{s}: {n}" for s in found for n in report.get(s, {})
                       if n in defined and n not in found[s]}
        for note in sorted(now_reached):
            print(f"note: {note} is no longer an entry")
        print(f"[reach] {sum(map(len, found.values()))} entries, {len(bad)} problem(s)")
        return 1 if bad else 0
    if any(note.split(": ", 1)[1].startswith(TIMED_OUT) for note in notes):
        # a run cut short reached less than it should: its records would
        # turn reached functions into entries
        print("[reach] a run timed out; the report is left as it is")
        return 1
    # a kept reason follows its entry when the entry changes section
    reasons = {n: r for section in report.values() for n, r in section.items()}
    new = {s: {n: reasons.get(n, "") for n in sorted(names)} for s, names in found.items()}
    REPORT.write_text(json.dumps(new, indent=1, ensure_ascii=False) + "\n")
    bad = problems(new, found, defined)
    print(f"[reach] wrote {REPORT.name}: {len(new['unreached'])} unreached, "
          f"{len(new['tests_only'])} tests only, {len(bad)} without a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
