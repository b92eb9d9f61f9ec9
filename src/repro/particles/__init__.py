"""Particle storage (structure-of-arrays) and initial-condition generators."""

from .particles import ParticleSet
from .generators import (
    uniform_cube,
    plummer_sphere,
    clustered_clumps,
    keplerian_disk,
    DiskParams,
    GENERATORS,
    generate,
)
from .io import SnapshotError, save_particles, load_particles
from .tipsy import save_tipsy, load_tipsy

__all__ = [
    "ParticleSet",
    "DiskParams",
    "uniform_cube",
    "plummer_sphere",
    "clustered_clumps",
    "keplerian_disk",
    "GENERATORS",
    "generate",
    "SnapshotError",
    "save_particles",
    "load_particles",
    "save_tipsy",
    "load_tipsy",
]
