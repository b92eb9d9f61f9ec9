"""What every workload process shares: the run context, timed repetitions,
timing summaries and the result it hands back to ``run.py``."""

from __future__ import annotations

import contextlib
import hashlib
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Recorder
from stats import summary

OUT = Path(__file__).resolve().parent / "out"

#: a traced leg never times fewer repetitions than this, whatever
#: ``--seconds`` says (an untraced segment: never fewer than one)
MIN_REPS = 3


class SameProgramError(Exception):
    """The hand-composed traced pipeline and the product entry point
    disagree on the same seed: the traced numbers describe another
    program, so the traced run aborts."""


class _NoSpans:
    """Stands in for the Recorder when tracing is off."""

    rep = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_SPANS = _NoSpans()


@dataclass
class Run:
    """One workload process: its arguments in, its measurements out."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    oracle: bool            # run the brute-force oracles (one segment of a run does)
    spawned: float          # time.time() in the parent, just before the spawn
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rec = Recorder(self.workload) if self.trace else None

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full

    def setup_done(self) -> None:
        """Set-up ends here: process start -> ready for the first timed
        repetition (import + generate + warm-up)."""
        self.metrics["setup_s"] = time.time() - self.spawned

    def time(self, name: str, samples) -> None:
        """Record a timing metric as the median of ``samples`` (with q1, q3, n)."""
        self.samples[name] = list(samples)
        self.timings[name] = summary(samples)
        self.metrics[name] = self.timings[name]["median"]

    def span_metric(self, name: str, span: str) -> None:
        samples = self.rec.samples(span)
        if samples:
            self.time(name, samples)

    def probe_metric(self, name: str, span: str) -> None:
        """A one-off span recorded outside the timed repetitions."""
        self.metrics[name] = sum(self.rec.samples(span, timed_only=False))

    def check(self, checks: int, misses: list) -> None:
        self.attempted += checks
        self.failed += len(misses)
        self.misses.extend(misses)

    def result(self) -> dict:
        if self.rec is not None:
            OUT.mkdir(exist_ok=True)
            self.rec.dump(OUT / f"trace_{self.workload}.json")
            self.detail["floor_s"] = self.rec.floor_s
        return {"workload": self.workload, "trace": int(self.trace),
                "seed": self.seed, "smoke": self.smoke,
                "attempted": self.attempted, "failed": self.failed,
                "misses": self.misses, "metrics": self.metrics,
                "samples": self.samples, "timings": self.timings,
                "detail": self.detail}


def timed_reps(step, seconds: float, min_reps: int, rec=NO_SPANS) -> list[float]:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` have been
    measured (and at least ``min_reps`` repetitions); -> wall time of each."""
    out: list[float] = []
    while len(out) < min_reps or sum(out) < seconds:
        rec.rep = len(out)
        t = time.perf_counter()
        step(len(out))
        out.append(time.perf_counter() - t)
    rec.rep = -1
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
