"""Real-execution fault injection for the ``repro.exec`` backends.

PR 2's :class:`~repro.faults.plan.FaultPlan` only ever fires inside the
simulated DES; an :class:`ExecFaultPlan` instead fires inside *live*
worker threads and processes, proving the supervised execution layer
(:mod:`repro.exec.supervise`) recovers from genuine failures:

``err=P``
    A chunk attempt raises :class:`ExecFaultError` before computing
    (deserialisation bug, corrupt input, poison chunk, ...).
``hang=P@T``
    A chunk attempt sleeps ``T`` seconds (default 30) before computing —
    a straggler or livelocked worker the per-chunk deadline must catch.
``kill=P``
    The worker dies mid-chunk.  In a worker **process** this is a real
    ``SIGKILL`` on the worker's own pid (the parent sees
    ``BrokenProcessPool``, exactly like the OOM killer); in a worker
    thread — which cannot be killed — it raises :class:`WorkerDeath`,
    the closest thread-pool analogue.
``seed=N``
    Seed for every decision (default 0).

Every decision is a pure function of ``(seed, fault class, chunk index,
attempt number)`` — never of scheduling — so the same plan replays
bit-identically for any worker count, and a *retried* chunk redraws its
faults: a chunk that was killed on attempt 0 usually survives attempt 1,
while ``kill=1.0`` keeps firing until the supervisor quarantines the
chunk and re-executes it serially in-parent (where no injection happens).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExecFaultPlan",
    "ExecFaultError",
    "WorkerDeath",
    "parse_exec_fault_spec",
]

# per-fault-class stream tags, so enabling one class never perturbs another
_CLASS_KILL = 1
_CLASS_HANG = 2
_CLASS_ERROR = 3


class ExecFaultError(RuntimeError):
    """The injected transient per-chunk failure (``err=P``)."""


class WorkerDeath(RuntimeError):
    """Simulated worker death in a thread pool (``kill=P`` on threads).

    Threads cannot be SIGKILLed; the supervisor treats this exception as
    a worker death (counted in ``exec.worker_deaths``) and re-dispatches
    the chunk, mirroring the process backend's pool-rebuild path.
    """


@dataclass(frozen=True)
class ExecFaultPlan:
    """Seed-driven description of faults injected into live exec workers."""

    seed: int = 0
    #: probability a chunk attempt raises :class:`ExecFaultError`
    chunk_error: float = 0.0
    #: probability a chunk attempt stalls for :attr:`hang_time` seconds
    worker_hang: float = 0.0
    #: stall duration for ``worker_hang`` (seconds)
    hang_time: float = 30.0
    #: probability the worker dies mid-chunk (SIGKILL / :class:`WorkerDeath`)
    worker_kill: float = 0.0

    def __post_init__(self) -> None:
        for name in ("chunk_error", "worker_hang", "worker_kill"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
        if self.hang_time < 0:
            raise ValueError(f"hang_time must be >= 0, got {self.hang_time}")

    @property
    def any_faults(self) -> bool:
        return any(p > 0 for p in (self.chunk_error, self.worker_hang, self.worker_kill))

    def _fires(self, class_tag: int, prob: float, chunk: int, attempt: int) -> bool:
        if prob <= 0.0:
            return False
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, class_tag, chunk, attempt))
        )
        return bool(rng.random() < prob)

    def draw(self, chunk: int, attempt: int) -> str | None:
        """Which fault (if any) fires for this (chunk, attempt):
        ``"kill"`` | ``"hang"`` | ``"error"`` | None.  Kill wins over hang
        wins over error, each from its own deterministic stream."""
        if self._fires(_CLASS_KILL, self.worker_kill, chunk, attempt):
            return "kill"
        if self._fires(_CLASS_HANG, self.worker_hang, chunk, attempt):
            return "hang"
        if self._fires(_CLASS_ERROR, self.chunk_error, chunk, attempt):
            return "error"
        return None

    def apply_in_worker(self, chunk: int, attempt: int, in_process: bool) -> None:
        """Inject the drawn fault from inside a live worker.

        Called at the top of every worker chunk attempt when the plan is
        shipped with the task.  ``in_process`` selects real ``SIGKILL``
        (worker processes) versus :class:`WorkerDeath` (worker threads).
        """
        fault = self.draw(chunk, attempt)
        if fault is None:
            return
        if fault == "kill":
            if in_process:
                os.kill(os.getpid(), signal.SIGKILL)  # never returns
            raise WorkerDeath(
                f"injected worker death (chunk {chunk}, attempt {attempt})"
            )
        if fault == "hang":
            time.sleep(self.hang_time)
            return
        raise ExecFaultError(
            f"injected chunk error (chunk {chunk}, attempt {attempt})"
        )

    def describe(self) -> str:
        """The plan back in spec-grammar form (round-trips through
        :func:`parse_exec_fault_spec`)."""
        parts = []
        if self.chunk_error:
            parts.append(f"err={self.chunk_error:g}")
        if self.worker_hang:
            parts.append(f"hang={self.worker_hang:g}@{self.hang_time:g}")
        if self.worker_kill:
            parts.append(f"kill={self.worker_kill:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)


def _parse_prob(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"exec fault spec: {key}={text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"exec fault spec: {key}={value} must be in [0, 1]")
    return value


def parse_exec_fault_spec(spec: str) -> ExecFaultPlan:
    """Parse the ``--exec-faults`` grammar (see module docstring)."""
    fields: dict = {}
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if "=" not in raw:
            raise ValueError(f"exec fault spec: expected key=value, got {raw!r}")
        key, _, value = raw.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key in ("err", "error", "chunk_error"):
            fields["chunk_error"] = _parse_prob(key, value)
        elif key in ("hang", "worker_hang"):
            prob, _, dur = value.partition("@")
            fields["worker_hang"] = _parse_prob(key, prob)
            if dur:
                fields["hang_time"] = float(dur)
        elif key in ("kill", "worker_kill"):
            fields["worker_kill"] = _parse_prob(key, value)
        elif key == "seed":
            fields["seed"] = int(value)
        else:
            raise ValueError(f"exec fault spec: unknown key {key!r}")
    return ExecFaultPlan(**fields)
