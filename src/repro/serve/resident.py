"""The resident dataset: load once, keep the tree and SoA arrays warm.

A :class:`ResidentState` is built either from a generator spec (kind /
n / seed) or from a PR 4 checkpoint written by a draining server.  The
spec is a plain dict that round-trips through the checkpoint's
``app_config``, so ``repro serve --resume`` reconstructs a
bit-identical tree: the checkpoint stores the tree-ordered particle
arrays byte-exactly (CRC-verified npz), and the deterministic builder
over identical arrays yields an identical tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..particles import ParticleSet, generate
from ..resilience.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from ..trees import build_tree
from ..trees.node import Tree


@dataclass
class ResidentState:
    """Dataset + tree kept warm for the lifetime of the server."""

    spec: dict[str, Any]
    particles: ParticleSet
    tree: Tree

    @property
    def n_particles(self) -> int:
        return len(self.particles)


def build_resident_state(spec: dict[str, Any]) -> ResidentState:
    """Materialise the resident dataset and tree from a spec dict.

    Spec forms::

        {"kind": "clumps", "n": 20000, "seed": 1,
         "tree_type": "oct", "bucket_size": 16}
        {"checkpoint": "ckpts/serve_ckpt.npz", ...tree overrides...}
    """
    spec = dict(spec)
    tree_type = spec.setdefault("tree_type", "oct")
    bucket = int(spec.setdefault("bucket_size", 16))
    # specs and drain checkpoints from when there were two (byte-identical)
    # octree builders name one; the key is dropped, not an error
    spec.pop("tree_builder", None)

    if spec.get("checkpoint"):
        ckpt = load_checkpoint(spec["checkpoint"])
        particles = ckpt.particles()
        tree_cfg = ckpt.app_config.get("tree", {})
        tree_type = tree_cfg.get("tree_type", tree_type)
        bucket = int(tree_cfg.get("bucket_size", bucket))
        # adopt the checkpoint's recorded generator spec: the resumed
        # server's own drain checkpoint then byte-matches the original
        # (same metadata, same tree-ordered arrays).  Checkpoints from
        # other apps (a gravity run, say) have no recorded dataset, so
        # the spec keeps naming the checkpoint.
        recorded = ckpt.app_config.get("dataset")
        if recorded:
            spec = dict(recorded)
        spec["tree_type"], spec["bucket_size"] = tree_type, bucket
    else:
        particles = generate({"kind": spec.setdefault("kind", "clumps"),
                              "n": spec.setdefault("n", 20000),
                              "seed": spec.setdefault("seed", 1)})

    tree = build_tree(particles, tree_type=tree_type, bucket_size=bucket)
    return ResidentState(spec=spec, particles=particles, tree=tree)


def checkpoint_resident(state: ResidentState, path: str,
                        extra: dict[str, Any] | None = None) -> str:
    """Write the resident state as a PR 4 checkpoint (drain handoff).

    The particle arrays are saved in tree order, so the restored build
    reproduces the exact same tree and the same query answers.
    """
    ckpt = Checkpoint(
        iteration=0,
        particle_fields={name: state.tree.particles[name]
                         for name in state.tree.particles.field_names},
        config={},
        app="serve",
        app_config={
            "dataset": {k: v for k, v in state.spec.items()
                        if k not in ("tree_type", "bucket_size")},
            "tree": {"tree_type": state.spec["tree_type"],
                     "bucket_size": state.spec["bucket_size"]},
            **(extra or {}),
        },
    )
    save_checkpoint(path, ckpt)
    return str(path)
