"""Versioned, checksummed checkpoints of the full pipeline state.

A checkpoint freezes everything a :class:`~repro.core.driver.Driver` needs
to continue a run bit-identically: the particle arrays exactly as they are
(tree order, original dtypes), the pending load-balancer assignment, the
previous iteration's imbalance (which feeds the reactive flush check),
application state (accelerations, collision logs, ...), and the position of
every registered PRNG stream.  The on-disk format is a single ``.npz``
archive:

* ``part_<field>`` — one entry per particle field, dtype-preserving;
* ``pend_assignment`` — the carried-over LB assignment, when present;
* ``user_<name>`` — application state arrays from ``checkpoint_state()``;
* ``__meta__`` — a JSON document with the format version, the iteration
  index to resume at, the run :class:`~repro.core.config.Configuration`,
  PRNG stream states, the fault spec, and a CRC-32 per array entry
  (computed over raw bytes + dtype + shape), verified on load.

:func:`capture_run` / :func:`restore_run` are the driver-facing pair;
:class:`CheckpointWriter` adds interval policy (``every=K``) and rotation,
and mirrors each blob into an optional in-memory
:class:`~repro.resilience.buddy.BuddyStore` — the Charm++-style double
in-memory checkpoint that the DES recovery model charges for.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.driver import IterationObserver
from ..particles import ParticleSet

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Checkpoint",
    "array_checksum",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_to_bytes",
    "checkpoint_from_bytes",
    "capture_run",
    "restore_run",
    "latest_checkpoint",
    "CheckpointWriter",
]

CHECKPOINT_VERSION = 1

#: archive-entry prefixes
_PART = "part_"
_USER = "user_"
_PEND = "pend_assignment"
_META = "__meta__"


class CheckpointError(ValueError):
    """A checkpoint could not be written, read, or verified."""


def array_checksum(arr: np.ndarray) -> int:
    """CRC-32 over an array's raw bytes, dtype, and shape.

    The dtype/shape are folded in so a reinterpreted or resized array never
    passes as intact data even when its byte stream is unchanged.
    """
    arr = np.ascontiguousarray(arr)
    crc = zlib.crc32(arr.tobytes())
    crc = zlib.crc32(str(arr.dtype.str).encode(), crc)
    crc = zlib.crc32(repr(tuple(arr.shape)).encode(), crc)
    return crc & 0xFFFFFFFF


@dataclass
class Checkpoint:
    """One frozen pipeline state; ``iteration`` is the *next* iteration to
    run on resume (a checkpoint written after iteration ``k`` completes has
    ``iteration == k + 1``)."""

    iteration: int
    particle_fields: dict[str, np.ndarray]
    pending_assignment: np.ndarray | None = None
    user_state: dict[str, np.ndarray] = field(default_factory=dict)
    rng_states: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    app: str | None = None
    app_config: dict[str, Any] = field(default_factory=dict)
    fault_spec: str | None = None
    last_imbalance: float | None = None
    version: int = CHECKPOINT_VERSION

    def particles(self) -> ParticleSet:
        """Reconstruct the ParticleSet dtype-for-dtype."""
        return ParticleSet.from_arrays(self.particle_fields)


def _entries(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {
        _PART + name: np.ascontiguousarray(arr)
        for name, arr in ckpt.particle_fields.items()
    }
    if ckpt.pending_assignment is not None:
        entries[_PEND] = np.ascontiguousarray(ckpt.pending_assignment)
    for name, arr in ckpt.user_state.items():
        entries[_USER + name] = np.ascontiguousarray(arr)
    return entries


def _meta_doc(ckpt: Checkpoint, entries: dict[str, np.ndarray]) -> dict[str, Any]:
    return {
        "version": int(ckpt.version),
        "iteration": int(ckpt.iteration),
        "app": ckpt.app,
        "app_config": ckpt.app_config,
        "config": ckpt.config,
        "rng_states": ckpt.rng_states,
        "fault_spec": ckpt.fault_spec,
        "last_imbalance": (
            None if ckpt.last_imbalance is None else float(ckpt.last_imbalance)
        ),
        "checksums": {name: array_checksum(arr) for name, arr in entries.items()},
    }


def _write(fh_or_path, ckpt: Checkpoint) -> None:
    entries = _entries(ckpt)
    meta = _meta_doc(ckpt, entries)
    np.savez_compressed(fh_or_path, __meta__=np.asarray(json.dumps(meta)), **entries)


def _read(fh_or_path, verify: bool, what: str) -> Checkpoint:
    try:
        with np.load(fh_or_path, allow_pickle=False) as data:
            if _META not in data.files:
                raise CheckpointError(f"{what}: not a checkpoint (missing {_META})")
            try:
                meta = json.loads(str(data[_META][()]))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise CheckpointError(f"{what}: corrupt metadata ({exc})") from exc
            version = int(meta.get("version", -1))
            if version > CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{what}: checkpoint version {version} is newer than "
                    f"supported ({CHECKPOINT_VERSION})"
                )
            arrays = {name: data[name] for name in data.files if name != _META}
    except CheckpointError:
        raise
    except Exception as exc:
        # zipfile.BadZipFile, OSError, EOFError, ValueError from a short
        # read, KeyError from a member truncated out of the directory, ...
        raise CheckpointError(f"{what}: unreadable checkpoint archive ({exc})") from exc

    if verify:
        recorded = meta.get("checksums", {})
        missing = sorted(set(recorded) - set(arrays))
        if missing:
            raise CheckpointError(f"{what}: truncated checkpoint, missing {missing}")
        for name, arr in sorted(arrays.items()):
            want = recorded.get(name)
            if want is None:
                raise CheckpointError(f"{what}: entry {name!r} has no checksum")
            got = array_checksum(arr)
            if got != int(want):
                raise CheckpointError(
                    f"{what}: checksum mismatch on {name!r} "
                    f"(recorded {int(want):#010x}, computed {got:#010x})"
                )

    particle_fields = {
        name[len(_PART):]: arr for name, arr in arrays.items()
        if name.startswith(_PART)
    }
    if "position" not in particle_fields:
        raise CheckpointError(f"{what}: checkpoint has no particle positions")
    user_state = {
        name[len(_USER):]: arr for name, arr in arrays.items()
        if name.startswith(_USER)
    }
    return Checkpoint(
        iteration=int(meta["iteration"]),
        particle_fields=particle_fields,
        pending_assignment=arrays.get(_PEND),
        user_state=user_state,
        rng_states=meta.get("rng_states", {}),
        config=meta.get("config", {}),
        app=meta.get("app"),
        app_config=meta.get("app_config", {}),
        fault_spec=meta.get("fault_spec"),
        last_imbalance=meta.get("last_imbalance"),
        version=version,
    )


def save_checkpoint(path: str | os.PathLike, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` (npz with checksummed entries)."""
    _write(os.fspath(path), ckpt)


def load_checkpoint(path: str | os.PathLike, verify: bool = True) -> Checkpoint:
    """Read a checkpoint, verifying every entry's CRC-32 unless ``verify``
    is False.  Raises :class:`CheckpointError` on truncation, corruption,
    or version mismatch."""
    return _read(os.fspath(path), verify, what=os.fspath(path))


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    """Serialize to an in-memory blob (the buddy-copy payload)."""
    buf = io.BytesIO()
    _write(buf, ckpt)
    return buf.getvalue()


def checkpoint_from_bytes(blob: bytes, verify: bool = True) -> Checkpoint:
    """Deserialize a blob produced by :func:`checkpoint_to_bytes`."""
    return _read(io.BytesIO(blob), verify, what="<memory>")


# -- driver integration -------------------------------------------------------

def capture_run(
    driver,
    next_iteration: int,
    app: str | None = None,
    app_config: dict[str, Any] | None = None,
) -> Checkpoint:
    """Freeze a driver's current state into a :class:`Checkpoint`.

    Captures the particle arrays verbatim (current — usually tree — order),
    the pending LB assignment, the registered PRNG stream states, the
    application's ``checkpoint_state()`` arrays, and enough configuration
    to rebuild the driver via :mod:`repro.resilience.resume`.
    """
    if driver.particles is None:
        raise CheckpointError("driver has no particles to checkpoint")
    particles = driver.particles
    fields = {name: np.array(particles[name], copy=True)
              for name in particles.field_names}
    user_state = {
        name: np.array(np.asarray(arr), copy=True)
        for name, arr in driver.checkpoint_state().items()
    }
    rng_states = {
        name: gen.bit_generator.state
        for name, gen in getattr(driver, "_rngs", {}).items()
    }
    pending = driver._pending_assignment
    if driver.reports:
        last_imbalance = float(driver.reports[-1].imbalance)
    else:
        last_imbalance = getattr(driver, "_resumed_imbalance", None)
    fault_plan = getattr(driver, "fault_plan", None)
    return Checkpoint(
        iteration=int(next_iteration),
        particle_fields=fields,
        pending_assignment=None if pending is None else np.array(pending, copy=True),
        user_state=user_state,
        rng_states=rng_states,
        config=driver.config.to_dict(),
        app=app,
        app_config=dict(app_config or {}),
        fault_spec=fault_plan.describe() if fault_plan is not None else None,
        last_imbalance=last_imbalance,
    )


#: configuration keys a resume may legitimately change.
_RESUMABLE_KEYS = {"num_iterations", "input_file"}


def restore_run(
    driver,
    source: "Checkpoint | str | os.PathLike",
    strict_config: bool = True,
) -> int:
    """Load ``source`` into ``driver`` and return the iteration to resume
    at.  With ``strict_config`` (the default) every configuration knob that
    affects the physics must match the checkpoint — resuming under a
    different tree type or partition count would silently diverge from the
    uninterrupted baseline, which defeats the bit-identity guarantee."""
    ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
    if strict_config and ckpt.config:
        current = driver.config.to_dict()
        # "tree_builder": recorded by checkpoints from when there were two
        # (byte-identical) octree builders; no longer a knob, so not compared
        free = _RESUMABLE_KEYS | {"tree_builder"}
        mismatched = {
            key: (val, current.get(key))
            for key, val in ckpt.config.items()
            if key not in free and current.get(key) != val
        }
        if mismatched:
            detail = ", ".join(
                f"{k}: checkpoint={a!r} run={b!r}" for k, (a, b) in sorted(mismatched.items())
            )
            raise CheckpointError(f"configuration mismatch on resume: {detail}")
    driver.particles = ckpt.particles()
    driver.tree = None
    driver.decomposition = None
    driver._pending_assignment = (
        None if ckpt.pending_assignment is None
        else np.array(ckpt.pending_assignment, copy=True)
    )
    driver._resumed_imbalance = ckpt.last_imbalance
    for name, state in ckpt.rng_states.items():
        gen = getattr(driver, "_rngs", {}).get(name)
        if gen is not None:
            gen.bit_generator.state = state
    driver.restore_state({k: np.array(v, copy=True) for k, v in ckpt.user_state.items()})
    return ckpt.iteration


# -- interval policy + rotation ----------------------------------------------

def _checkpoint_name(next_iteration: int) -> str:
    return f"ckpt_{next_iteration:06d}.npz"


def latest_checkpoint(directory: str | os.PathLike) -> str | None:
    """Path of the highest-iteration ``ckpt_*.npz`` in ``directory``."""
    d = Path(directory)
    if not d.is_dir():
        return None
    candidates = sorted(d.glob("ckpt_*.npz"))
    return str(candidates[-1]) if candidates else None


class CheckpointWriter(IterationObserver):
    """Writes a checkpoint every ``every`` completed iterations, keeping the
    newest ``keep`` files, and mirroring each blob into an optional buddy
    store (the in-memory double checkpoint).  Plug it into a run with
    ``driver.observe(writer)``; ``app``/``app_config`` let ``repro resume``
    rebuild the owning Driver."""

    def __init__(
        self,
        directory: str | os.PathLike,
        every: int = 1,
        keep: int = 2,
        app: str | None = None,
        app_config: dict[str, Any] | None = None,
        buddy=None,
        rank: int = 0,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = Path(directory)
        self.every = int(every)
        self.keep = int(keep)
        self.app = app
        self.app_config = dict(app_config or {})
        self.buddy = buddy
        self.rank = int(rank)
        self.written: list[str] = []

    def report(self, driver, report) -> None:
        self.maybe_write(driver, report.iteration)

    def maybe_write(self, driver, iteration: int) -> str | None:
        """Checkpoint after iteration ``iteration`` when the interval says
        so; returns the path written (or None)."""
        if (iteration + 1) % self.every != 0:
            return None
        return self.write(driver, iteration)

    def write(self, driver, iteration: int) -> str:
        """Unconditionally checkpoint the state after iteration
        ``iteration`` (the file is named for the *next* iteration)."""
        ckpt = capture_run(
            driver, next_iteration=iteration + 1,
            app=self.app, app_config=self.app_config,
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / _checkpoint_name(ckpt.iteration)
        save_checkpoint(path, ckpt)
        if self.buddy is not None:
            self.buddy.commit(self.rank, checkpoint_to_bytes(ckpt))
        self.written.append(str(path))
        self._rotate()
        from ..obs import get_telemetry

        get_telemetry().flight.record(
            "checkpoint.commit", iteration=ckpt.iteration, path=str(path),
            buddy=self.buddy is not None,
        )
        return str(path)

    def write_final(self, driver) -> str | None:
        """Best-effort checkpoint at the last completed iteration boundary.

        The CLI's SIGTERM/SIGINT path calls this so an interrupted run
        stays resumable.  Returns None before the first completed
        iteration; a failure to write is swallowed — the process is
        already exiting on a signal.
        """
        if not driver.reports:
            return None
        try:
            return self.write(driver, driver.reports[-1].iteration)
        except Exception:  # noqa: BLE001 - shutdown path, best effort
            return None

    def _rotate(self) -> None:
        while len(self.written) > self.keep:
            stale = self.written.pop(0)
            try:
                os.remove(stale)
            except OSError:
                pass
