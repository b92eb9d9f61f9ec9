"""Snapshot I/O corner cases, example importability, and misc coverage."""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.particles import (
    ParticleSet,
    load_particles,
    save_particles,
    uniform_cube,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestSnapshotVersioning:
    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, field_position=np.zeros((2, 3)), __version__=np.int64(99))
        with pytest.raises(ValueError, match="newer"):
            load_particles(path)

    def test_versionless_file_accepted(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, field_position=np.zeros((2, 3)))
        p = load_particles(path)
        assert len(p) == 2

    def test_extra_fields_roundtrip(self, tmp_path):
        p = uniform_cube(20, seed=1)
        p.add_field("temperature", np.linspace(0, 1, 20))
        path = tmp_path / "t.npz"
        save_particles(path, p)
        q = load_particles(path)
        assert np.allclose(q.temperature, p.temperature)

    def test_orig_index_preserved(self, tmp_path):
        p = uniform_cube(30, seed=2).permuted(np.random.default_rng(0).permutation(30))
        path = tmp_path / "perm.npz"
        save_particles(path, p)
        q = load_particles(path)
        assert np.array_equal(q.orig_index, p.orig_index)


class TestExamplesImportable:
    """Every example is a valid module with a main() entry point (running
    them is exercised manually / by the docs; importing catches bitrot)."""

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "gravity_simulation",
            "sph_simulation",
            "planetesimal_disk",
            "distributed_scaling",
            "cosmology_analysis",
            "custom_disk_decomposition",
        ],
    )
    def test_example_has_main(self, name):
        path = REPO / "examples" / f"{name}.py"
        assert path.exists(), path
        spec = importlib.util.spec_from_file_location(f"example_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)


class TestParticleSetMisc:
    def test_total_mass(self):
        p = ParticleSet(np.zeros((4, 3)), mass=np.array([1.0, 2, 3, 4]))
        assert p.total_mass == 10.0

    def test_field_names_order_stable(self):
        p = ParticleSet(np.zeros((2, 3)), radius=np.ones(2))
        assert p.field_names[:3] == ("position", "velocity", "mass")

    def test_getitem(self):
        p = ParticleSet(np.zeros((2, 3)))
        assert p["mass"].shape == (2,)
        with pytest.raises(KeyError):
            p["nonexistent"]
