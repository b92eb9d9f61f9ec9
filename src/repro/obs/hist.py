"""Mergeable log₂-bucketed latency histograms with quantile estimation.

A :class:`Log2Histogram` buckets positive samples by their binary exponent:
bucket ``i`` covers ``(2**(min_exp + i - 1), 2**(min_exp + i)]`` seconds,
with one underflow bucket below ``2**min_exp`` and one overflow bucket
above ``2**max_exp``.  The default range covers ~1 µs to ~1 h, which is
every latency this codebase produces, in 44 integer counters.

Two properties make it the right shape for the parallel backends:

* **merge is exact and deterministic** — bucket counts are integers, so
  ``a.merge(b)`` loses nothing, and merging worker histograms in chunk
  order at the reduction point gives the same result for any worker count;
* **quantile() is bounded** — the estimate is the geometric midpoint of the
  bucket holding the requested rank, so it is always within one log₂
  bucket (a factor of √2̄ each way) of the exact order statistic.

Workers record on their own clocks into a *fork* of the parent histogram
(the same fork/absorb protocol :class:`~repro.core.traverser.Recorder`
uses) and the backend absorbs the forks in chunk order — which is how the
process backend reports true worker-side timings instead of parent-side
reconstructions.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

__all__ = ["Log2Histogram", "QUANTILES", "quantile_label"]

#: the quantiles every snapshot reports
QUANTILES = (0.5, 0.95, 0.99, 0.999)


def quantile_label(q: float) -> str:
    """``0.999`` -> ``"p99.9"``, ``0.5`` -> ``"p50"``."""
    pct = q * 100.0
    if abs(pct - round(pct)) < 1e-9:
        return f"p{int(round(pct))}"
    return f"p{pct:g}"


class Log2Histogram:
    """Log₂-bucketed histogram of positive values (seconds by convention)."""

    __slots__ = ("min_exp", "max_exp", "counts", "count", "sum", "min", "max")

    def __init__(self, min_exp: int = -20, max_exp: int = 12) -> None:
        if max_exp <= min_exp:
            raise ValueError("max_exp must be > min_exp")
        self.min_exp = int(min_exp)
        self.max_exp = int(max_exp)
        # underflow | one bucket per exponent in (min_exp, max_exp] | overflow
        self.counts = [0] * (self.max_exp - self.min_exp + 2)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ----------------------------------------------------------
    def _bucket(self, value: float) -> int:
        if value <= 0.0 or not math.isfinite(value):
            return 0
        m, e = math.frexp(value)  # value = m * 2**e with 0.5 <= m < 1
        exp = e - 1 if m == 0.5 else e  # ceil(log2(value))
        return min(max(exp - self.min_exp, 0), len(self.counts) - 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[self._bucket(value)] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Vectorised :meth:`observe` for an array of samples."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                        dtype=np.float64)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.sum += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        pos = arr[np.isfinite(arr) & (arr > 0)]
        n_nonpos = arr.size - pos.size
        if n_nonpos:
            self.counts[0] += int(n_nonpos)
        if pos.size:
            m, e = np.frexp(pos)
            exp = np.where(m == 0.5, e - 1, e)
            idx = np.clip(exp - self.min_exp, 0, len(self.counts) - 1)
            binned = np.bincount(idx, minlength=len(self.counts))
            for i, c in enumerate(binned):
                if c:
                    self.counts[i] += int(c)

    # -- merge (the fork/absorb protocol) -----------------------------------
    def fork(self) -> "Log2Histogram":
        """An empty histogram with the same bucket layout, for one worker."""
        return Log2Histogram(self.min_exp, self.max_exp)

    def merge(self, other: "Log2Histogram") -> "Log2Histogram":
        """Fold ``other`` in; exact on counts, associative and commutative."""
        if (other.min_exp, other.max_exp) != (self.min_exp, self.max_exp):
            raise ValueError(
                f"incompatible bucket layouts: [{self.min_exp},{self.max_exp}]"
                f" vs [{other.min_exp},{other.max_exp}]"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self

    absorb = merge  # Recorder-protocol alias used by the exec backends

    # -- quantiles ----------------------------------------------------------
    def _bounds(self, bucket: int) -> tuple[float, float]:
        if bucket == 0:
            return (0.0, 2.0 ** self.min_exp)
        hi_exp = self.min_exp + bucket
        if bucket == len(self.counts) - 1:
            return (2.0 ** self.max_exp, math.inf)
        return (2.0 ** (hi_exp - 1), 2.0 ** hi_exp)

    def quantile(self, q: float) -> float:
        """Order-statistic estimate: the geometric midpoint of the bucket
        holding rank ``ceil(q * count)`` — within one log₂ bucket of the
        exact sorted-sample value, clamped to the observed [min, max].

        An empty histogram has no order statistics: returns ``nan`` (never
        raises), which renderers surface as ``n=0`` rather than a fake 0.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        cum = 0
        bucket = len(self.counts) - 1
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= rank:
                bucket = i
                break
        lo, hi = self._bounds(bucket)
        if not math.isfinite(hi):
            est = self.max
        elif lo == 0.0:
            est = hi / 2.0
        else:
            est = math.sqrt(lo * hi)
        return min(max(est, self.min), self.max)

    def quantiles(self, qs: Iterable[float] = QUANTILES) -> dict[str, float]:
        return {quantile_label(q): self.quantile(q) for q in qs}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- (de)serialisation --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "min_exp": self.min_exp,
            "max_exp": self.max_exp,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "quantiles": self.quantiles() if self.count else {},
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Log2Histogram":
        out = cls(doc["min_exp"], doc["max_exp"])
        counts = [int(c) for c in doc["counts"]]
        if len(counts) != len(out.counts):
            raise ValueError("bucket count mismatch")
        out.counts = counts
        out.count = int(doc["count"])
        out.sum = float(doc["sum"])
        out.min = float(doc["min"]) if doc.get("min") is not None else math.inf
        out.max = float(doc["max"]) if doc.get("max") is not None else -math.inf
        return out

