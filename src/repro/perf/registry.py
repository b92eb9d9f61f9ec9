"""The benchmark registry: stable IDs for the ``benchmarks/bench_*.py``
workloads.

Each bench script registers its timed workload with the :func:`benchmark`
decorator.  The decorated function is a **setup** function: called with
``quick=...`` it builds the (possibly scaled-down) workload and returns a
zero-argument callable that the harness times — so expensive construction
(particle generation, tree builds, instrumented traversals) never pollutes
the samples, and importing a bench script does no work at all.

::

    from repro.perf import benchmark

    @benchmark("des.fig9_profile", group="des",
               description="Fig 9 DES run with tracing")
    def perf_fig9(quick=False):
        workload = build_gravity_workload(n=6_000 if quick else 25_000, ...)
        def run():
            r = simulate_traversal(workload, ...)
            return {"sim_time": r.time}          # optional extra metrics
        return run

:func:`discover` imports every ``bench_*.py`` under the benchmarks
directory (repo layout or ``$REPRO_BENCH_DIR``), which triggers the
decorators and fills the process-wide registry.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["BenchmarkDef", "BenchmarkRegistry", "benchmark", "get_registry", "discover"]


@dataclass(frozen=True)
class BenchmarkDef:
    """One registered benchmark: a stable ID plus its setup function."""

    id: str
    fn: Callable[..., Callable[[], object]]
    group: str = "general"
    description: str = ""
    repeats: int = 5
    quick_repeats: int = 3
    warmup: int = 1
    source: str = ""


class BenchmarkRegistry:
    """Keyed collection of :class:`BenchmarkDef`, iterated in ID order."""

    def __init__(self) -> None:
        self._defs: dict[str, BenchmarkDef] = {}

    def register(self, d: BenchmarkDef) -> BenchmarkDef:
        # Last registration wins: the same script may be imported both by
        # pytest (as a top-level module) and by discover() (under the
        # _repro_bench namespace); both register identical definitions.
        self._defs[d.id] = d
        return d

    def get(self, bench_id: str) -> BenchmarkDef:
        try:
            return self._defs[bench_id]
        except KeyError:
            raise KeyError(
                f"unknown benchmark {bench_id!r}; known: {', '.join(self.ids()) or '(none)'}"
            ) from None

    def ids(self) -> list[str]:
        return sorted(self._defs)

    def select(self, patterns: list[str] | None = None) -> list[BenchmarkDef]:
        """Definitions whose ID matches any glob pattern (all when None)."""
        if not patterns:
            return [self._defs[i] for i in self.ids()]
        out, missing = [], []
        for pat in patterns:
            hits = [i for i in self.ids() if fnmatch.fnmatch(i, pat)]
            if not hits:
                missing.append(pat)
            out.extend(hits)
        if missing:
            raise KeyError(
                f"no benchmark matches {missing}; known: {', '.join(self.ids()) or '(none)'}"
            )
        seen: dict[str, BenchmarkDef] = {}
        for i in out:
            seen.setdefault(i, self._defs[i])
        return list(seen.values())

    def __iter__(self):
        return iter(self.select())

    def __len__(self) -> int:
        return len(self._defs)

_REGISTRY = BenchmarkRegistry()


def get_registry() -> BenchmarkRegistry:
    """The process-wide benchmark registry."""
    return _REGISTRY


def benchmark(
    bench_id: str,
    *,
    group: str = "general",
    description: str = "",
    repeats: int = 5,
    quick_repeats: int = 3,
    warmup: int = 1,
    registry: BenchmarkRegistry | None = None,
) -> Callable:
    """Decorator registering a benchmark setup function under a stable ID."""

    def decorate(fn: Callable) -> Callable:
        # NOT `registry or _REGISTRY`: an empty registry is falsy (__len__).
        target = registry if registry is not None else _REGISTRY
        target.register(BenchmarkDef(
            id=bench_id, fn=fn, group=group,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
            repeats=repeats, quick_repeats=quick_repeats, warmup=warmup,
            source=getattr(fn, "__module__", ""),
        ))
        return fn

    return decorate


def default_bench_dir() -> Path:
    """``$REPRO_BENCH_DIR`` if set, else ``<repo>/benchmarks`` relative to
    this source tree."""
    env = os.environ.get("REPRO_BENCH_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "benchmarks"


def discover(bench_dir: str | os.PathLike | None = None) -> int:
    """Import every ``bench_*.py`` so its ``@benchmark`` registrations run.

    Idempotent (modules are cached under a private namespace); a script
    that fails to import is skipped with a warning rather than taking the
    whole suite down.  Returns the number of scripts imported this call.
    """
    directory = Path(bench_dir) if bench_dir is not None else default_bench_dir()
    if not directory.is_dir():
        return 0
    imported = 0
    for path in sorted(directory.glob("bench_*.py")):
        mod_name = f"_repro_bench.{path.stem}"
        if mod_name in sys.modules:
            continue
        spec = importlib.util.spec_from_file_location(mod_name, path)
        if spec is None or spec.loader is None:  # pragma: no cover - defensive
            continue
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        try:
            spec.loader.exec_module(module)
        except Exception as exc:
            del sys.modules[mod_name]
            warnings.warn(f"benchmark script {path.name} failed to import: {exc}",
                          stacklevel=2)
            continue
        imported += 1
    return imported
