"""Field-by-field comparison of two in-memory checkpoints, for tests.

The product compares checkpoints as files (``repro audit`` and
:func:`repro.resilience.audit_state_files`, entry by entry in bytes).  The
round-trip tests compare a :class:`~repro.resilience.Checkpoint` with the one
read back, before any file is involved; this is their oracle.
"""

from __future__ import annotations

from repro.resilience.audit import _compare_arrays
from repro.resilience.checkpoint import Checkpoint


def compare_checkpoints(a: Checkpoint, b: Checkpoint) -> list[str]:
    """Differences between two in-memory checkpoints (empty = identical)."""
    problems: list[str] = []
    if a.iteration != b.iteration:
        problems.append(f"iteration {a.iteration} != {b.iteration}")
    for kind, fa, fb in (
        ("particle field", a.particle_fields, b.particle_fields),
        ("user state", a.user_state, b.user_state),
    ):
        only_a = sorted(set(fa) - set(fb))
        only_b = sorted(set(fb) - set(fa))
        if only_a:
            problems.append(f"{kind}s only in first: {only_a}")
        if only_b:
            problems.append(f"{kind}s only in second: {only_b}")
        for name in sorted(set(fa) & set(fb)):
            problems.extend(_compare_arrays(f"{kind} {name!r}", fa[name], fb[name]))
    if (a.pending_assignment is None) != (b.pending_assignment is None):
        problems.append("pending assignment present in only one checkpoint")
    elif a.pending_assignment is not None:
        problems.extend(_compare_arrays(
            "pending assignment", a.pending_assignment, b.pending_assignment
        ))
    if a.rng_states != b.rng_states:
        diverged = sorted(
            set(a.rng_states) ^ set(b.rng_states)
        ) or [k for k in a.rng_states if a.rng_states[k] != b.rng_states.get(k)]
        problems.append(f"PRNG stream states differ: {diverged}")
    return problems
