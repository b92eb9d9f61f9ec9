"""Graceful interrupts: SIGTERM/SIGINT become :class:`RunInterrupted`,
the driver writes a final checkpoint, and the interrupted run resumes
bit-identically.  Signals are raised *in-process* from a driver hook
(``signal.raise_signal``), so these tests are deterministic — no child
processes, no timing races.
"""

import signal

import numpy as np
import pytest

from repro.apps.gravity import GravityDriver
from repro.core import Configuration
from repro.resilience import (
    CheckpointWriter,
    RunInterrupted,
    graceful_interrupts,
    latest_checkpoint,
    load_checkpoint,
)
from repro.particles import clustered_clumps


def _driver(n=300, iterations=4, interrupt_after=None,
            sig=signal.SIGTERM, seed=3):
    p = clustered_clumps(n, seed=seed)

    class Main(GravityDriver):
        def create_particles(self, config):
            return p.copy()

        def traversal(self, iteration):
            # fire before this iteration mutates any state: the final
            # checkpoint then holds exactly `interrupt_after` completed
            # iterations and the resumed run replays this one from scratch
            if interrupt_after is not None and iteration == interrupt_after:
                signal.raise_signal(sig)
            super().traversal(iteration)

    cfg = Configuration(num_iterations=iterations, num_partitions=4,
                        num_subtrees=4)
    return Main(cfg, theta=0.7, softening=1e-3, dt=1e-3)


class TestGracefulInterrupts:
    def test_sigterm_becomes_run_interrupted(self):
        with pytest.raises(RunInterrupted) as exc_info:
            with graceful_interrupts():
                signal.raise_signal(signal.SIGTERM)
        exc = exc_info.value
        assert exc.signal_name == "SIGTERM"
        assert exc.exit_code == 143              # 128 + SIGTERM
        assert isinstance(exc, BaseException)
        assert not isinstance(exc, Exception)    # survives `except Exception`

    def test_sigint_exit_code(self):
        with pytest.raises(RunInterrupted) as exc_info:
            with graceful_interrupts():
                signal.raise_signal(signal.SIGINT)
        assert exc_info.value.exit_code == 130

    def test_previous_handlers_restored(self):
        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        with graceful_interrupts():
            assert signal.getsignal(signal.SIGTERM) is not before_term
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int

    def test_no_signal_no_interference(self):
        with graceful_interrupts():
            result = sum(range(10))
        assert result == 45


class TestInterruptedDriver:
    def test_interrupt_mid_run_then_resume_bit_identical(self, tmp_path):
        """SIGTERM at iteration 2 of 4 -> RunInterrupted; the final
        checkpoint makes the run resumable, and the resumed run matches
        the uninterrupted baseline field-for-field."""
        baseline = _driver()
        baseline.run()

        interrupted = _driver(interrupt_after=2)
        writer = interrupted.observe(CheckpointWriter(tmp_path, every=10))  # interval
        # never fires on its own: only the final checkpoint writes
        with pytest.raises(RunInterrupted) as exc_info:
            with graceful_interrupts():
                interrupted.run()
        assert exc_info.value.exit_code == 143
        assert len(interrupted.reports) == 2     # iters 1..2 completed

        path = writer.write_final(interrupted)
        assert path is not None
        ckpt = load_checkpoint(path)
        assert ckpt.iteration == 2
        assert str(latest_checkpoint(tmp_path)) == str(path)

        resumed = _driver()
        resumed.run(resume_from=ckpt)
        for name in baseline.particles.field_names:
            np.testing.assert_array_equal(baseline.particles[name],
                                          resumed.particles[name])
        np.testing.assert_array_equal(baseline.accelerations,
                                      resumed.accelerations)

    def test_final_checkpoint_noop_without_checkpointing(self, tmp_path, capsys,
                                                         monkeypatch):
        """Interrupted without ``--checkpoint-every``: same exit code, no
        checkpoint written or announced."""
        from repro.__main__ import main

        _sigterm_in_iteration_1(monkeypatch)
        rc = main(["gravity", "--n", "200", "--iterations", "3",
                   "--checkpoint-dir", str(tmp_path / "ck")])
        assert rc == 143
        err = capsys.readouterr().err
        assert "interrupted by SIGTERM after 1 completed iteration(s)" in err
        assert "checkpoint" not in err
        assert not (tmp_path / "ck").exists()

    def test_final_checkpoint_noop_before_first_iteration(self, tmp_path):
        driver = _driver(iterations=2)
        writer = driver.observe(CheckpointWriter(tmp_path, every=1))
        assert writer.write_final(driver) is None   # nothing completed


def _sigterm_in_iteration_1(monkeypatch) -> None:
    """Make every Driver.run raise SIGTERM at the start of iteration 1's
    traversal."""
    from repro.core.driver import Driver

    original = Driver.run

    def run_then_term(self, resume_from=None):
        hooked = self.traversal

        def traversal(iteration):
            if iteration == 1:
                signal.raise_signal(signal.SIGTERM)
            hooked(iteration)
        self.traversal = traversal
        return original(self, resume_from=resume_from)

    monkeypatch.setattr(Driver, "run", run_then_term)


class TestCLIGuardedRun:
    def test_cli_returns_143_and_writes_checkpoint(self, tmp_path, capsys,
                                                   monkeypatch):
        """`repro gravity` interrupted by SIGTERM exits 143, reports the
        checkpoint on stderr, and the checkpoint is loadable."""
        from repro.__main__ import main

        _sigterm_in_iteration_1(monkeypatch)
        rc = main(["gravity", "--n", "200", "--iterations", "3",
                   "--checkpoint-dir", str(tmp_path / "ck"),
                   "--checkpoint-every", "10"])
        assert rc == 143
        err = capsys.readouterr().err
        assert "interrupted by SIGTERM after 1 completed iteration(s)" in err
        assert "repro resume" in err
        ckpt = load_checkpoint(latest_checkpoint(tmp_path / "ck"))
        assert ckpt.iteration == 1
