"""Timing summaries (pure Python: ``run.py`` uses them without numpy)."""

from __future__ import annotations

import math
import statistics


def summary(samples) -> dict:
    """median, q1, q3 and n of ``samples``."""
    samples = [float(x) for x in samples]
    q1, median, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                      else samples * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def percentile(samples, q: float) -> float:
    """The q-quantile, reported only when at least ten samples lie beyond it."""
    need = math.ceil(10 / (1 - q))
    if len(samples) < need:
        raise ValueError(f"p{round(q * 100)} needs >= {need} samples, "
                         f"got {len(samples)}: raise --seconds")
    ordered = sorted(samples)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]
