"""Consistency auditing after restore / recovery.

Two layers:

* :func:`audit_restore` — structural checks on a just-restored driver:
  particle arrays well-formed (finite positions, consistent leading
  dimension, unique original labels) and, once a tree exists,
  :func:`~repro.trees.validate.check_tree_invariants`.
* :func:`audit_state_files` — the cross-checkpoint audit: two archives
  (checkpoints or particle snapshots) compared entry-for-entry at the byte
  level.  This is the property every other resilience layer rests on — a
  run checkpointed at iteration *k* and resumed must be *bit-identical* to
  the uninterrupted baseline, and "close enough" is indistinguishable from
  a restart bug.
"""

from __future__ import annotations

import os

import numpy as np

from ..trees.validate import check_tree_invariants

__all__ = [
    "audit_restore",
    "audit_state_files",
]


def audit_restore(driver, check_boxes: bool = True) -> list[str]:
    """Structural problems with a restored driver's state (empty = clean)."""
    problems: list[str] = []
    particles = driver.particles
    if particles is None:
        return ["driver has no particles after restore"]
    n = len(particles)
    if n == 0:
        problems.append("restored particle set is empty")
    for name in particles.field_names:
        arr = particles[name]
        if arr.shape[:1] != (n,):
            problems.append(
                f"field {name!r} leading dimension {arr.shape[:1]} != ({n},)"
            )
    pos = particles.position
    if not np.all(np.isfinite(pos)):
        problems.append("restored positions contain non-finite values")
    labels = particles.orig_index
    if len(np.unique(labels)) != n:
        problems.append("orig_index labels are not unique after restore")
    if np.any(particles.mass < 0):
        problems.append("restored masses contain negative values")
    pending = getattr(driver, "_pending_assignment", None)
    if pending is not None and len(pending) != n:
        problems.append(
            f"pending LB assignment has {len(pending)} entries for {n} particles"
        )
    if problems:
        # Structurally broken arrays make a tree build meaningless.
        return problems
    # The restored particles must support a valid tree build.  (A tree left
    # on the driver can be legitimately stale — integration moves particles
    # after the last build — so the audit validates a fresh build instead.)
    try:
        from ..trees import build_tree

        tree = build_tree(particles.copy(), driver.config.tree_build_config())
        check_tree_invariants(tree, check_boxes=check_boxes)
    except AssertionError as exc:
        problems.append(f"tree invariants violated on restored particles: {exc}")
    except Exception as exc:
        problems.append(f"tree build failed on restored particles: {exc}")
    return problems


def _compare_arrays(name: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    if a.dtype != b.dtype:
        return [f"{name}: dtype {a.dtype} != {b.dtype}"]
    if a.shape != b.shape:
        return [f"{name}: shape {a.shape} != {b.shape}"]
    if a.tobytes() != b.tobytes():
        mismatch = int(np.count_nonzero(
            np.asarray(a).reshape(-1) != np.asarray(b).reshape(-1)
        ))
        return [f"{name}: {mismatch} of {a.size} elements differ"]
    return []


def audit_state_files(path_a: str | os.PathLike, path_b: str | os.PathLike) -> list[str]:
    """Byte-level comparison of two ``.npz`` state archives — checkpoints
    or particle snapshots alike.  Every array entry must match dtype,
    shape, and raw bytes; string entries (metadata) must match exactly."""
    problems: list[str] = []
    with np.load(os.fspath(path_a), allow_pickle=False) as da, \
            np.load(os.fspath(path_b), allow_pickle=False) as db:
        only_a = sorted(set(da.files) - set(db.files))
        only_b = sorted(set(db.files) - set(da.files))
        if only_a:
            problems.append(f"entries only in {path_a}: {only_a}")
        if only_b:
            problems.append(f"entries only in {path_b}: {only_b}")
        for name in sorted(set(da.files) & set(db.files)):
            problems.extend(_compare_arrays(name, da[name], db[name]))
    return problems
