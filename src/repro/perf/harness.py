"""The benchmark harness: warmup + repeated timed runs, robust statistics,
an environment fingerprint, and schema-versioned machine-readable results.

A run produces a ``BENCH_<timestamp>.json`` document::

    {
      "schema": "repro-bench",
      "schema_version": 1,
      "created": "2026-08-06T12:34:56",
      "quick": false,
      "environment": {"python": ..., "numpy": ..., "git_sha": ..., ...},
      "results": [
        {"id": "des.fig9_profile", "group": "des", "samples": [...],
         "median": ..., "iqr": ..., "mad": ..., "n_outliers": 0,
         "extra": {...}},
        ...
      ]
    }

Statistics are robust by design: the headline number is the **median** of
the kept samples, spread is the **IQR**, and samples more than
``5 x MAD`` from the median are rejected as outliers (a GC pause or a
noisy-neighbour burst should not poison a regression verdict).  The
regression detector in :mod:`repro.perf.compare` consumes two of these
documents.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from .registry import BenchmarkDef, BenchmarkRegistry, discover, get_registry

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "environment_fingerprint",
    "robust_stats",
    "run_one",
    "run_suite",
    "write_report",
    "load_report",
    "validate_report",
    "format_report",
]

SCHEMA = "repro-bench"
SCHEMA_VERSION = 1

#: samples further than this many MADs from the median are rejected
MAD_OUTLIER_K = 5.0


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_fingerprint() -> dict[str, Any]:
    """Where these numbers came from — enough to judge comparability."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def robust_stats(samples: list[float]) -> dict[str, Any]:
    """Median/IQR/MAD with MAD-based outlier rejection.

    Returns the statistics of the *kept* samples plus how many were
    rejected; degenerate sample counts (0, 1) fall back sensibly.
    """
    if not samples:
        return {"median": None, "iqr": 0.0, "mad": 0.0, "mean": None,
                "min": None, "max": None, "n_samples": 0, "n_outliers": 0}

    def median(xs: list[float]) -> float:
        s = sorted(xs)
        n = len(s)
        mid = n // 2
        return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])

    med = median(samples)
    mad = median([abs(x - med) for x in samples])
    if mad > 0 and len(samples) >= 3:
        kept = [x for x in samples if abs(x - med) <= MAD_OUTLIER_K * mad]
    else:
        kept = list(samples)
    n_out = len(samples) - len(kept)
    med = median(kept)

    def quantile(xs: list[float], q: float) -> float:
        s = sorted(xs)
        if len(s) == 1:
            return s[0]
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return {
        "median": med,
        "iqr": quantile(kept, 0.75) - quantile(kept, 0.25),
        "mad": median([abs(x - med) for x in kept]),
        "mean": sum(kept) / len(kept),
        "min": min(kept),
        "max": max(kept),
        "n_samples": len(samples),
        "n_outliers": n_out,
    }


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of extras (numpy scalars etc.) to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        try:
            return value.item()
        except (TypeError, ValueError):
            return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def run_one(
    d: BenchmarkDef,
    quick: bool = False,
    repeats: int | None = None,
    warmup: int | None = None,
    timer: Callable[[], float] = time.perf_counter,
) -> dict[str, Any]:
    """Set up, warm up, and time one registered benchmark.

    A benchmark that raises is reported with an ``error`` field instead of
    aborting the suite.
    """
    n_rep = repeats if repeats is not None else (d.quick_repeats if quick else d.repeats)
    n_warm = warmup if warmup is not None else d.warmup
    base = {"id": d.id, "group": d.group, "description": d.description,
            "quick": quick, "repeats": n_rep, "warmup": n_warm}
    try:
        runner = d.fn(quick=quick)
        if not callable(runner):
            raise TypeError(
                f"benchmark {d.id!r} setup must return a zero-arg callable, "
                f"got {type(runner).__name__}")
        extra: Any = None
        for _ in range(n_warm):
            out = runner()
            if isinstance(out, dict):
                extra = out
        samples: list[float] = []
        for _ in range(max(n_rep, 1)):
            t0 = timer()
            out = runner()
            samples.append(timer() - t0)
            if isinstance(out, dict):
                extra = out
        result = dict(base, samples=samples, **robust_stats(samples))
        result["extra"] = _jsonable(extra) if extra else {}
        return result
    except Exception as exc:
        return dict(base, samples=[], error=f"{type(exc).__name__}: {exc}",
                    **robust_stats([]), extra={})


def run_suite(
    ids: list[str] | None = None,
    quick: bool = False,
    repeats: int | None = None,
    warmup: int | None = None,
    registry: BenchmarkRegistry | None = None,
    discover_first: bool = True,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run (a selection of) the registered benchmarks into one report."""
    if registry is None:
        if discover_first:
            discover()
        registry = get_registry()
    defs = registry.select(ids)
    results = []
    for d in defs:
        if progress:
            progress(f"running {d.id} ...")
        res = run_one(d, quick=quick, repeats=repeats, warmup=warmup)
        if progress:
            if res.get("error"):
                progress(f"  {d.id}: ERROR {res['error']}")
            else:
                progress(f"  {d.id}: median {res['median'] * 1e3:.2f} ms "
                         f"(iqr {res['iqr'] * 1e3:.2f} ms, "
                         f"{res['n_samples']} samples)")
        results.append(res)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": quick,
        "environment": environment_fingerprint(),
        "results": results,
    }


def write_report(
    report: dict[str, Any],
    path: str | os.PathLike | None = None,
    artifacts_dir: str | os.PathLike | None = None,
) -> Path:
    """Write ``BENCH_<timestamp>.json`` (or ``path``); optionally one
    per-benchmark artifact file each under ``artifacts_dir``."""
    if path is None:
        stamp = report.get("created", time.strftime("%Y-%m-%dT%H:%M:%S"))
        stamp = stamp.replace("-", "").replace(":", "")
        candidate = Path(f"BENCH_{stamp}.json")
        n = 1
        while candidate.exists():
            candidate = Path(f"BENCH_{stamp}_{n}.json")
            n += 1
        path = candidate
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    if artifacts_dir is not None:
        artifacts = Path(artifacts_dir)
        artifacts.mkdir(parents=True, exist_ok=True)
        for res in report.get("results", []):
            name = res["id"].replace("/", "_") + ".json"
            doc = {"schema": SCHEMA, "schema_version": SCHEMA_VERSION,
                   "created": report.get("created"),
                   "environment": report.get("environment"), "result": res}
            with open(artifacts / name, "w") as fh:
                json.dump(doc, fh, indent=1)
    return path


def validate_report(doc: Any, source: str = "report") -> dict[str, Any]:
    """Schema-check a loaded BENCH document; raises ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{source}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
        raise ValueError(f"{source}: unsupported schema_version {version!r} "
                         f"(this build reads <= {SCHEMA_VERSION}) — was it written by "
                         "a newer build? re-run `repro bench run` with this build to "
                         "regenerate it")
    results = doc.get("results")
    if not isinstance(results, list):
        raise ValueError(f"{source}: missing results list")
    for i, res in enumerate(results):
        if not isinstance(res, dict) or "id" not in res:
            raise ValueError(f"{source}: results[{i}] has no id")
        if "error" not in res and not isinstance(res.get("median"), (int, float)):
            raise ValueError(f"{source}: results[{i}] ({res.get('id')}) has no median")
    return doc


def load_report(path: str | os.PathLike) -> dict[str, Any]:
    """Load + validate a BENCH JSON file."""
    p = Path(path)
    try:
        with open(p) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: not valid JSON ({exc})") from exc
    return validate_report(doc, source=str(p))


def format_report(report: dict[str, Any]) -> str:
    """Console table of one BENCH document, critical-path extras included."""
    env = report.get("environment", {})
    sha = (env.get("git_sha") or "unknown")[:12]
    lines = [
        f"bench report — created {report.get('created')}  "
        f"quick={report.get('quick')}  git={sha}  "
        f"python={env.get('python')}  numpy={env.get('numpy')}  "
        f"cpus={env.get('cpu_count')}",
        f"{'benchmark':<28} {'median ms':>12} {'iqr ms':>10} {'n':>3} {'out':>3}  note",
    ]
    for res in report.get("results", []):
        if res.get("error"):
            lines.append(f"{res['id']:<28} {'-':>12} {'-':>10} {0:>3} {0:>3}  "
                         f"ERROR {res['error']}")
            continue
        extra_note = ""
        extra = res.get("extra") or {}
        cp = extra.get("critical_path")
        lines.append(
            f"{res['id']:<28} {res['median'] * 1e3:>12.3f} {res['iqr'] * 1e3:>10.3f} "
            f"{res['n_samples']:>3} {res['n_outliers']:>3}  {extra_note}")
        if isinstance(cp, dict) and "components" in cp:
            from .critical_path import format_components
            lines.append(f"{'':<28}   critical path: "
                         + format_components(cp["components"], cp.get("makespan")))
    return "\n".join(lines)
