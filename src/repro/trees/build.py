"""Tree-build configuration and dispatch.

Mirrors the paper's ``Configuration`` knobs ``tree_type`` and bucket size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..particles import ParticleSet
from .node import Tree

__all__ = ["TreeType", "TreeBuildConfig", "build_tree"]


class TreeType(str, Enum):
    """Built-in tree types (paper: ``TreeType::eOct`` etc.)."""

    OCT = "oct"
    KD = "kd"
    LONGEST_DIM = "longest"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class TreeBuildConfig:
    """Parameters of a tree build.

    Attributes
    ----------
    tree_type:
        Which subdivision strategy to use.
    bucket_size:
        Maximum particles per leaf; recursion stops below this.
    max_depth:
        Safety cap on tree depth (duplicated particles otherwise recurse
        forever in binary trees).
    builder:
        ``"linear"``, the only value.  Every tree type has one builder
        (:mod:`repro.trees.linear`, :mod:`repro.trees.build_binary`); the
        field is still accepted because the frozen ``bench_e2e/`` benchmark
        spells ``build_tree(..., builder="linear")``.
    """

    tree_type: TreeType | str = TreeType.OCT
    bucket_size: int = 16
    max_depth: int = 60
    builder: str = "linear"

    def __post_init__(self) -> None:
        self.tree_type = TreeType(self.tree_type)
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.builder != "linear":
            raise ValueError(f"builder must be 'linear', got {self.builder!r}")


def build_tree(particles: ParticleSet, config: TreeBuildConfig | None = None, **kwargs) -> Tree:
    """Build a spatial tree over ``particles`` according to ``config``.

    ``kwargs`` are a convenience for constructing the config inline:
    ``build_tree(p, tree_type="kd", bucket_size=8)``.
    """
    if config is None:
        config = TreeBuildConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a config object or keyword overrides, not both")
    if len(particles) == 0:
        raise ValueError("cannot build a tree over zero particles")

    # Imported here to avoid a circular import at module load.
    from ..obs import get_telemetry
    from .build_binary import build_kd_tree, build_longest_dim_tree
    from .linear import build_octree_linear

    with get_telemetry().tracer.span(
        "build_tree", cat="trees", tree_type=str(config.tree_type), n_particles=len(particles),
    ):
        if config.tree_type == TreeType.OCT:
            return build_octree_linear(particles, config)
        if config.tree_type == TreeType.KD:
            return build_kd_tree(particles, config)
        if config.tree_type == TreeType.LONGEST_DIM:
            return build_longest_dim_tree(particles, config)
        raise ValueError(f"unknown tree type {config.tree_type!r}")
