"""Rebuilding a Driver from a checkpoint (``repro resume``).

A checkpoint records the description its Driver was made from — the
application's name (``app``), that Driver's keyword arguments
(``app_config``) and the ``Configuration`` — so rebuilding is the same
:func:`repro.apps.make_driver` call a fresh run makes, minus the
dataset: particles, PRNG streams, and application state come from the
checkpoint itself via :func:`~repro.resilience.checkpoint.restore_run`.
"""

from __future__ import annotations

from .checkpoint import Checkpoint, CheckpointError

__all__ = ["driver_from_checkpoint"]


def driver_from_checkpoint(ckpt: Checkpoint):
    """Construct the (not-yet-restored) Driver a checkpoint belongs to.

    The caller passes the returned driver and the checkpoint to
    ``driver.run(resume_from=ckpt)`` (or :func:`restore_run` directly).
    A checkpoint that names no (or an unknown) application, or records
    keyword arguments or configuration values this build rejects, raises
    :class:`CheckpointError`.
    """
    from ..apps import make_driver

    if ckpt.app is None:
        raise CheckpointError(
            "checkpoint does not record its application; "
            "pass the driver explicitly instead of using `repro resume`"
        )
    try:
        return make_driver(ckpt.app, ckpt.app_config, ckpt.config)
    except ValueError as exc:
        raise CheckpointError(f"cannot rebuild the checkpointed run: {exc}") from None
