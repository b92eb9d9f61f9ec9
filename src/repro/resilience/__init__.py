"""Checkpoint/restart and crash recovery.

Four layers (mirroring the Charm++/ChaNGa lineage the paper builds on):

* :mod:`~repro.resilience.checkpoint` — versioned, CRC-checksummed
  checkpoints of the full pipeline state, with interval policy and
  rotation (:class:`CheckpointWriter`) and the driver-facing
  :func:`capture_run` / :func:`restore_run` pair;
* :mod:`~repro.resilience.buddy` — in-memory double checkpointing: each
  rank mirrors its blob to a ring buddy, so any single failure recovers
  without touching disk;
* :mod:`~repro.resilience.recovery` — the accounting the DES runtime
  fills in when ``crash=P@R`` fires: state lost, bytes refetched from the
  buddy, recovery span (:class:`RecoveryReport` on ``SimResult``);
* :mod:`~repro.resilience.audit` — consistency checks after any restore
  (tree invariants, well-formed arrays) and the bit-exact cross-checkpoint
  audit that underwrites the "resume == uninterrupted baseline" guarantee.

``repro resume <checkpoint>`` (see :mod:`repro.resilience.resume`) rebuilds
the owning application Driver and continues the run.

:mod:`~repro.resilience.interrupt` turns SIGTERM/SIGINT into a
:class:`RunInterrupted` exception so long-running CLI commands can write
a final checkpoint (and dump the flight recorder) before exiting
``128 + signum`` — an interrupted batch run is resumable, not lost.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    array_checksum,
    capture_run,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    latest_checkpoint,
    load_checkpoint,
    restore_run,
    save_checkpoint,
)
from .buddy import BuddyStore
from .interrupt import RunInterrupted, graceful_interrupts
from .recovery import CrashRecovery, RecoveryReport
from .audit import (
    audit_restore,
    audit_state_files,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointWriter",
    "array_checksum",
    "capture_run",
    "checkpoint_from_bytes",
    "checkpoint_to_bytes",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_run",
    "save_checkpoint",
    "BuddyStore",
    "RunInterrupted",
    "graceful_interrupts",
    "CrashRecovery",
    "RecoveryReport",
    "audit_restore",
    "audit_state_files",
]
