"""Deterministic fault plans: what can go wrong, how often, from which seed.

A :class:`FaultPlan` is a pure description — probabilities, factors, and a
seed — with no mutable state, so the same plan object can drive any number
of runs and every run with the same plan is bit-identical.  Plans are
usually written as compact specs (the ``--faults`` CLI grammar)::

    drop=0.05,dup=0.01,jitter=0.3,fail=0.1,seed=42
    straggler=0.25x4,crash=0.5@0.25,retries=8,timeout=40

Grammar (comma-separated ``key=value`` pairs, all optional):

``drop=P``
    Each message leg (request out, response back) is lost with
    probability ``P``.
``dup=P``
    Each surviving message leg is delivered twice with probability ``P``
    (the copy takes its own jittered latency, so it may arrive reordered).
``jitter=J``
    Message latency is multiplied by ``1 + U(0, J)`` per leg; any ``J > 0``
    makes same-route messages reorder.
``fail=P``
    A fill/insertion fails transiently with probability ``P`` after the
    data arrived (deserialization error, allocation failure, ...).  The
    placeholder is re-armed and the request retried.
``straggler=FxS``
    Each process is a straggler with probability ``F``; stragglers run all
    worker tasks ``S`` times slower (default slowdown 4 when ``xS`` is
    omitted).
``crash=P@R``
    Each process crashes once with probability ``P`` at a uniformly drawn
    time; it restarts after ``R`` × the estimated fault-free iteration time
    (default 0.25 when ``@R`` is omitted) with a cold cache, and all
    responses in flight to it are lost.
``seed=N``
    Seed for every random decision above (default 0).
``retries=N`` / ``timeout=F`` / ``backoff=B``
    Retry policy knobs, see :class:`~repro.cache.models.RetryPolicy`:
    attempt cap, timeout as a multiple of the fault-free round-trip
    estimate, and the exponential backoff base.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.models import RetryPolicy

__all__ = ["FaultPlan", "NO_FAULTS", "parse_fault_spec"]


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven description of every fault class the injector can apply.

    All probabilities default to zero, so ``FaultPlan()`` is a valid "no
    faults" plan (useful for measuring injector overhead: the machinery is
    armed but never fires, and results are bit-identical to a run with no
    injector at all).
    """

    seed: int = 0
    #: probability a message leg is dropped
    drop: float = 0.0
    #: probability a surviving message leg is duplicated
    duplicate: float = 0.0
    #: latency multiplier spread: latency *= 1 + U(0, jitter)
    jitter: float = 0.0
    #: probability a fill fails transiently after the data arrived
    fill_failure: float = 0.0
    #: probability a process is a straggler
    straggler_fraction: float = 0.0
    #: service-time multiplier on straggler processes
    straggler_slowdown: float = 4.0
    #: probability a process crashes (once) during the iteration
    crash: float = 0.0
    #: restart delay as a fraction of the estimated fault-free makespan
    crash_restart: float = 0.25
    #: timeout / backoff / attempt-cap policy for request retries
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "fill_failure", "straggler_fraction", "crash"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.straggler_slowdown < 1:
            raise ValueError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        if self.crash_restart < 0:
            raise ValueError(f"crash_restart must be >= 0, got {self.crash_restart}")

    def describe(self) -> str:
        """The plan back in spec-grammar form (round-trips through
        :func:`parse_fault_spec`)."""
        parts = []
        if self.drop:
            parts.append(f"drop={self.drop:g}")
        if self.duplicate:
            parts.append(f"dup={self.duplicate:g}")
        if self.jitter:
            parts.append(f"jitter={self.jitter:g}")
        if self.fill_failure:
            parts.append(f"fail={self.fill_failure:g}")
        if self.straggler_fraction:
            parts.append(
                f"straggler={self.straggler_fraction:g}x{self.straggler_slowdown:g}"
            )
        if self.crash:
            parts.append(f"crash={self.crash:g}@{self.crash_restart:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


#: The shared "nothing ever goes wrong" plan.
NO_FAULTS = FaultPlan()


def _parse_prob(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"fault spec: {key}={text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"fault spec: {key}={value} must be in [0, 1]")
    return value


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the ``--faults`` grammar (see module docstring) into a plan."""
    fields: dict = {}
    retry: dict = {}
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if "=" not in raw:
            raise ValueError(f"fault spec: expected key=value, got {raw!r}")
        key, _, value = raw.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "drop":
            fields["drop"] = _parse_prob(key, value)
        elif key in ("dup", "duplicate"):
            fields["duplicate"] = _parse_prob(key, value)
        elif key == "jitter":
            fields["jitter"] = float(value)
        elif key in ("fail", "fill_failure"):
            fields["fill_failure"] = _parse_prob(key, value)
        elif key == "straggler":
            frac, _, slow = value.partition("x")
            fields["straggler_fraction"] = _parse_prob(key, frac)
            if slow:
                fields["straggler_slowdown"] = float(slow)
        elif key == "crash":
            prob, _, restart = value.partition("@")
            fields["crash"] = _parse_prob(key, prob)
            if restart:
                fields["crash_restart"] = float(restart)
        elif key == "seed":
            fields["seed"] = int(value)
        elif key == "retries":
            retry["max_attempts"] = int(value)
        elif key == "timeout":
            retry["timeout_factor"] = float(value)
        elif key == "backoff":
            retry["backoff"] = float(value)
        else:
            raise ValueError(f"fault spec: unknown key {key!r}")
    if retry:
        fields["retry"] = RetryPolicy(**retry)
    return FaultPlan(**fields)
