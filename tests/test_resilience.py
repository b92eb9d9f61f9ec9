"""Checkpoint/restore, buddy replication, crash recovery, and audits.

The resilience contract has four layers, tested in order:

* checkpoints round-trip the full pipeline state field-for-field and
  dtype-for-dtype, and any bit flipped on disk is *detected*, never
  silently restored;
* the in-memory :class:`BuddyStore` mirrors Charm++ double checkpointing:
  a rank's blob survives the loss of that rank;
* a run checkpointed at iteration *k* and resumed is bit-identical to the
  uninterrupted baseline — for gravity and SPH, with real integration;
* DES crashes lose real state (cache lines, in-flight requests) and the
  recovery cost is visible in ``SimResult.recovery``, the trace, and the
  metrics registry.
"""

import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.gravity import GravityDriver
from repro.apps.sph import SPHDriver
from repro.core import Configuration, Driver
from repro.particles import (
    ParticleSet,
    SnapshotError,
    clustered_clumps,
    load_particles,
    save_particles,
    uniform_cube,
)
from repro.resilience import (
    BuddyStore,
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    audit_checkpoints,
    audit_restore,
    audit_state_files,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    compare_checkpoints,
    latest_checkpoint,
    load_checkpoint,
    restore_run,
    save_checkpoint,
)
from repro.resilience.resume import driver_from_checkpoint


def _gravity_driver(n=400, iterations=3, dt=1e-3, seed=3, **cfg_kwargs):
    p = clustered_clumps(n, seed=seed)

    class Main(GravityDriver):
        def create_particles(self, config):
            return p.copy()

    defaults = dict(num_iterations=iterations, num_partitions=4, num_subtrees=4)
    defaults.update(cfg_kwargs)
    return Main(Configuration(**defaults), theta=0.7, softening=1e-3, dt=dt)


def _sph_driver(n=300, iterations=3, dt=1e-3, seed=5):
    p = uniform_cube(n, seed=seed)

    class Main(SPHDriver):
        def create_particles(self, config):
            return p.copy()

    cfg = Configuration(num_iterations=iterations, num_partitions=4, num_subtrees=4)
    return Main(cfg, k_neighbors=12, dt=dt)


def _fields(driver_or_particles):
    p = getattr(driver_or_particles, "particles", driver_or_particles)
    return {name: np.array(p[name]) for name in p.field_names}


def _assert_fields_equal(a: dict, b: dict):
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].shape == b[name].shape, name
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestCheckpointRoundTrip:
    def make_checkpoint(self):
        rng = np.random.default_rng(0)
        return Checkpoint(
            iteration=7,
            particle_fields={
                "position": rng.standard_normal((50, 3)),
                "velocity": rng.standard_normal((50, 3)).astype(np.float32),
                "mass": np.full(50, 0.02),
                "orig_index": np.arange(50, dtype=np.int64),
                "flags": rng.integers(0, 4, 50).astype(np.int32),
            },
            pending_assignment=rng.integers(0, 4, 50),
            user_state={"accelerations": rng.standard_normal((50, 3))},
            rng_states={"lb": {"state": 123}},
            config=Configuration(num_iterations=9).to_dict(),
            app="gravity",
            app_config={"theta": 0.7},
            fault_spec="crash=0.5@0.1,seed=2",
            last_imbalance=1.25,
        )

    def test_file_round_trip(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert compare_checkpoints(ckpt, back) == []
        assert back.app == "gravity"
        assert back.app_config == {"theta": 0.7}
        assert back.fault_spec == "crash=0.5@0.1,seed=2"
        assert back.last_imbalance == 1.25
        assert back.config["num_iterations"] == 9

    def test_bytes_round_trip(self):
        ckpt = self.make_checkpoint()
        back = checkpoint_from_bytes(checkpoint_to_bytes(ckpt))
        assert compare_checkpoints(ckpt, back) == []

    def test_particles_reconstruct_dtype_for_dtype(self):
        ckpt = self.make_checkpoint()
        p = checkpoint_from_bytes(checkpoint_to_bytes(ckpt)).particles()
        assert isinstance(p, ParticleSet)
        assert p["velocity"].dtype == np.float32
        assert p["flags"].dtype == np.int32
        np.testing.assert_array_equal(p.position, ckpt.particle_fields["position"])

    def test_corrupt_payload_is_detected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, self.make_checkpoint())
        blob = bytearray(path.read_bytes())
        # Flip bytes late in the archive: data, not the zip directory.
        for off in range(len(blob) // 2, len(blob) // 2 + 8):
            blob[off] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_archive_is_detected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, self.make_checkpoint())
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 3])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_entry_reported_as_truncated(self, tmp_path):
        src, dst = tmp_path / "ckpt.npz", tmp_path / "cut.npz"
        save_checkpoint(src, self.make_checkpoint())
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
            for item in zin.infolist():
                if "part_mass" not in item.filename:
                    zout.writestr(item, zin.read(item.filename))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(dst)

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        dtypes=st.lists(
            st.sampled_from([np.float32, np.float64, np.int32, np.int64]),
            min_size=1, max_size=4,
        ),
        iteration=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_round_trip_property(self, n, dtypes, iteration, seed):
        """Any mix of field dtypes/shapes survives save → restore
        field-for-field, dtype-for-dtype, bit-for-bit."""
        rng = np.random.default_rng(seed)
        fields = {"position": rng.standard_normal((n, 3))}
        for i, dt in enumerate(dtypes):
            if np.issubdtype(dt, np.floating):
                fields[f"f{i}"] = rng.standard_normal(n).astype(dt)
            else:
                fields[f"f{i}"] = rng.integers(-1000, 1000, n).astype(dt)
        ckpt = Checkpoint(iteration=iteration, particle_fields=fields,
                          user_state={"aux": rng.standard_normal((n, 2))})
        back = checkpoint_from_bytes(checkpoint_to_bytes(ckpt))
        assert back.iteration == iteration
        _assert_fields_equal(fields, back.particle_fields)
        _assert_fields_equal(ckpt.user_state, back.user_state)


class TestSnapshotChecksums:
    def make_particles(self, n=64, seed=2):
        return clustered_clumps(n, seed=seed)

    def test_round_trip_verifies(self, tmp_path):
        p = self.make_particles()
        path = tmp_path / "snap.npz"
        save_particles(path, p)
        back = load_particles(path)
        _assert_fields_equal(_fields(p), _fields(back))

    def test_corruption_detected_on_load(self, tmp_path):
        path = tmp_path / "snap.npz"
        save_particles(path, self.make_particles())
        blob = bytearray(path.read_bytes())
        for off in range(len(blob) // 2, len(blob) // 2 + 8):
            blob[off] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            load_particles(path)

    def test_truncated_snapshot_detected(self, tmp_path):
        path = tmp_path / "snap.npz"
        save_particles(path, self.make_particles())
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(SnapshotError):
            load_particles(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "snap.npz"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(SnapshotError):
            load_particles(path)


class TestBuddyStore:
    def test_ring_buddy(self):
        store = BuddyStore(4)
        assert [store.buddy_of(r) for r in range(4)] == [1, 2, 3, 0]

    def test_recover_from_own_copy(self):
        store = BuddyStore(4)
        store.commit(2, b"rank2-state")
        blob, from_buddy = store.recover(2)
        assert blob == b"rank2-state" and not from_buddy

    def test_recover_from_buddy_after_loss(self):
        store = BuddyStore(4)
        store.commit(2, b"rank2-state")
        store.lose_rank(2)
        blob, from_buddy = store.recover(2)
        assert blob == b"rank2-state" and from_buddy

    def test_double_failure_raises(self):
        store = BuddyStore(4)
        store.commit(2, b"rank2-state")
        store.lose_rank(2)
        store.lose_rank(3)  # the buddy holding rank 2's replica
        with pytest.raises(CheckpointError):
            store.recover(2)

    def test_single_rank_ring(self):
        store = BuddyStore(1)
        store.commit(0, b"solo")
        assert store.recover(0) == (b"solo", False)


class TestCheckpointWriter:
    def test_interval_and_rotation(self, tmp_path):
        driver = _gravity_driver(n=200, iterations=6)
        writer = driver.observe(CheckpointWriter(
            tmp_path, every=2, keep=2, app="gravity", app_config={}
        ))
        driver.run()
        assert isinstance(writer, CheckpointWriter)
        names = sorted(f.name for f in tmp_path.glob("ckpt_*.npz"))
        # every=2 writes after iterations 1, 3, 5 -> next-iteration stamps
        # 2, 4, 6; keep=2 retains only the newest two.
        assert names == ["ckpt_000004.npz", "ckpt_000006.npz"]
        assert latest_checkpoint(tmp_path).endswith("ckpt_000006.npz")

    def test_writer_commits_to_buddy_store(self, tmp_path):
        store = BuddyStore(2)
        driver = _gravity_driver(n=200, iterations=2)
        driver.observe(CheckpointWriter(tmp_path, every=1, buddy=store, rank=0))
        driver.run()
        assert store.has_checkpoint(0)
        store.lose_rank(0)
        blob, from_buddy = store.recover(0)
        assert from_buddy
        back = checkpoint_from_bytes(blob)
        assert back.iteration == 2


class TestBitIdenticalResume:
    @pytest.mark.parametrize("make", [_gravity_driver, _sph_driver],
                             ids=["gravity", "sph"])
    def test_resume_matches_uninterrupted(self, make, tmp_path):
        baseline = make()
        baseline.run()

        interrupted = make()
        interrupted.observe(CheckpointWriter(tmp_path, every=1))
        interrupted.config.num_iterations = 2
        interrupted.run()

        resumed = make()
        ckpt = load_checkpoint(tmp_path / "ckpt_000002.npz")
        resumed.config.num_iterations = baseline.config.num_iterations
        resumed.run(resume_from=ckpt)

        _assert_fields_equal(_fields(baseline), _fields(resumed))
        np.testing.assert_array_equal(baseline.accelerations, resumed.accelerations)
        assert audit_restore(resumed) == []

    def test_resume_via_driver_from_checkpoint(self, tmp_path):
        baseline = _gravity_driver(n=250, iterations=4)
        baseline.run()

        interrupted = _gravity_driver(n=250, iterations=4)
        writer = interrupted.observe(CheckpointWriter(
            tmp_path, every=1, app="gravity",
            app_config={"theta": 0.7, "softening": 1e-3, "dt": 1e-3},
        ))
        interrupted.config.num_iterations = 2
        interrupted.run()
        assert len(writer.written) > 0

        ckpt = load_checkpoint(latest_checkpoint(tmp_path))
        resumed = driver_from_checkpoint(ckpt)
        resumed.config.num_iterations = 4
        resumed.run(resume_from=ckpt)
        _assert_fields_equal(_fields(baseline), _fields(resumed))

    def test_checkpoints_of_resumed_run_match_baseline(self, tmp_path):
        """Cross-checkpoint audit: the checkpoint the resumed run writes at
        iteration k equals the one the uninterrupted run writes there."""
        base_dir, cut_dir, res_dir = (tmp_path / d for d in ("a", "b", "c"))
        baseline = _gravity_driver(iterations=4)
        baseline.observe(CheckpointWriter(base_dir, every=1, keep=10))
        baseline.run()

        interrupted = _gravity_driver(iterations=4)
        interrupted.observe(CheckpointWriter(cut_dir, every=1, keep=10))
        interrupted.config.num_iterations = 2
        interrupted.run()

        resumed = _gravity_driver(iterations=4)
        resumed.observe(CheckpointWriter(res_dir, every=1, keep=10))
        resumed.run(resume_from=cut_dir / "ckpt_000002.npz")

        for name in ("ckpt_000003.npz", "ckpt_000004.npz"):
            assert audit_checkpoints(base_dir / name, res_dir / name) == []
            assert audit_state_files(base_dir / name, res_dir / name) == []

    def test_config_mismatch_rejected(self, tmp_path):
        driver = _gravity_driver(iterations=2)
        driver.observe(CheckpointWriter(tmp_path, every=1))
        driver.run()
        other = _gravity_driver(iterations=2, bucket_size=8)
        with pytest.raises(CheckpointError, match="configuration mismatch"):
            other.run(resume_from=tmp_path / "ckpt_000002.npz")

    def test_iteration_count_is_resumable(self, tmp_path):
        driver = _gravity_driver(iterations=2)
        driver.observe(CheckpointWriter(tmp_path, every=1))
        driver.run()
        longer = _gravity_driver(iterations=7)
        start = restore_run(longer, tmp_path / "ckpt_000002.npz")
        assert start == 2

    def test_registered_rng_streams_round_trip(self, tmp_path):
        class Noisy(Driver):
            def __init__(self, config):
                super().__init__(config)
                self.rng = self.register_rng("noise", np.random.default_rng(11))
                self.draws = []

            def create_particles(self, config):
                return uniform_cube(120, seed=1)

            def traversal(self, iteration):
                self.draws.append(float(self.rng.random()))

        cfg = Configuration(num_iterations=4, num_partitions=4, num_subtrees=4)
        baseline = Noisy(cfg)
        baseline.run()

        interrupted = Noisy(Configuration(num_iterations=2, num_partitions=4,
                                          num_subtrees=4))
        interrupted.observe(CheckpointWriter(tmp_path, every=1))
        interrupted.run()
        resumed = Noisy(cfg)
        resumed.run(resume_from=tmp_path / "ckpt_000002.npz")
        assert resumed.draws == baseline.draws[2:]


class TestLinearBuilderResilience:
    """The octree builder through the resilience stack: a resumed run
    rebuilds the tree the interrupted one had, byte for byte — including a
    run interrupted while ``tree_builder`` was still a knob."""

    APP = {"theta": 0.7, "softening": 1e-3, "dt": 1e-3}

    def test_linear_run_resumes_bit_identically(self, tmp_path):
        baseline = _gravity_driver()
        baseline.run()

        interrupted = _gravity_driver()
        interrupted.observe(CheckpointWriter(tmp_path, every=1))
        interrupted.config.num_iterations = 2
        interrupted.run()

        resumed = _gravity_driver()
        resumed.config.num_iterations = baseline.config.num_iterations
        resumed.run(resume_from=load_checkpoint(tmp_path / "ckpt_000002.npz"))

        _assert_fields_equal(_fields(baseline), _fields(resumed))
        np.testing.assert_array_equal(baseline.accelerations, resumed.accelerations)
        assert audit_restore(resumed) == []

    @pytest.mark.parametrize("builder", ["recursive", "linear"])
    def test_old_checkpoint_with_tree_builder(self, tmp_path, builder):
        """Checkpoints written up to PR 20 record ``tree_builder`` (the two
        builders made byte-identical trees).  Both ways in — an explicit
        driver through ``restore_run``'s strict comparison, and ``repro
        resume`` through ``Configuration.from_dict`` — ignore the key and end
        bit-identical to the uninterrupted run, ``repro audit`` clean."""
        baseline = _gravity_driver()
        baseline.observe(CheckpointWriter(tmp_path / "whole", every=1, keep=10,
                                          app="gravity", app_config=self.APP))
        baseline.run()

        interrupted = _gravity_driver(iterations=2)
        interrupted.observe(CheckpointWriter(tmp_path / "cut", every=1,
                                             app="gravity", app_config=self.APP))
        interrupted.run()
        old = load_checkpoint(tmp_path / "cut" / "ckpt_000002.npz")
        assert "tree_builder" not in old.config
        old.config["tree_builder"] = builder
        save_checkpoint(tmp_path / "old.npz", old)
        assert load_checkpoint(tmp_path / "old.npz").config["tree_builder"] == builder

        ways = {"explicit": _gravity_driver(),
                "from_checkpoint": driver_from_checkpoint(load_checkpoint(tmp_path / "old.npz"))}
        for way, resumed in ways.items():
            resumed.config.num_iterations = baseline.config.num_iterations
            resumed.observe(CheckpointWriter(tmp_path / way, every=1, keep=10,
                                             app="gravity", app_config=self.APP))
            resumed.run(resume_from=tmp_path / "old.npz")
            _assert_fields_equal(_fields(baseline), _fields(resumed))
            np.testing.assert_array_equal(baseline.accelerations, resumed.accelerations)
            assert audit_restore(resumed) == []
            assert audit_state_files(tmp_path / "whole" / "ckpt_000003.npz",
                                     tmp_path / way / "ckpt_000003.npz") == []

    def test_only_the_retired_key_is_dropped(self):
        assert "tree_builder" not in Configuration().to_dict()
        assert Configuration.from_dict({"tree_builder": "recursive"}) == Configuration()
        with pytest.raises(ValueError, match="^bad configuration: .*'tree_bilder'"):
            Configuration.from_dict({"tree_bilder": "linear"})


class TestAudit:
    def test_audit_restore_flags_nonfinite_positions(self):
        driver = _gravity_driver(iterations=1)
        driver.run()
        driver.particles.position[0, 0] = np.nan
        problems = audit_restore(driver)
        assert any("non-finite" in p for p in problems)

    def test_audit_restore_flags_duplicate_labels(self):
        driver = _gravity_driver(iterations=1)
        driver.run()
        driver.particles.orig_index[1] = driver.particles.orig_index[0]
        assert any("unique" in p for p in audit_restore(driver))

    def test_compare_checkpoints_reports_differences(self):
        rt = TestCheckpointRoundTrip()
        a, b = rt.make_checkpoint(), rt.make_checkpoint()
        b.iteration = 8
        b.particle_fields["mass"] = b.particle_fields["mass"] + 1e-9
        problems = compare_checkpoints(a, b)
        assert any("iteration" in p for p in problems)
        assert any("mass" in p for p in problems)

    def test_audit_state_files_on_snapshots(self, tmp_path):
        p = clustered_clumps(80, seed=9)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        save_particles(pa, p)
        save_particles(pb, p)
        assert audit_state_files(pa, pb) == []
        q = p.copy()
        q.position[0, 0] += 1e-12
        save_particles(pb, q)
        problems = audit_state_files(pa, pb)
        assert problems and any("position" in prob for prob in problems)
