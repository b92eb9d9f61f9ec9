"""High-level gravity entry points and the Barnes-Hut Driver.

:func:`compute_gravity` is the one-call API (build/accumulate/traverse);
:class:`GravityDriver` is the paper-style application class mirroring Fig 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import Configuration, Driver, TraversalStats, get_traverser
from ...core.traverser import Recorder
from ...particles import ParticleSet
from ...trees import Tree, build_tree
from .centroid import compute_centroid_arrays
from .visitor import GravityVisitor

__all__ = ["GravityResult", "compute_gravity", "compute_gravity_on_tree", "GravityDriver"]


@dataclass
class GravityResult:
    """Accelerations plus the traversal bookkeeping."""

    tree: Tree
    #: accelerations in *input* particle order
    accel: np.ndarray
    stats: TraversalStats
    visitor: GravityVisitor
    #: monopole potential in input order (when requested)
    potential: np.ndarray | None = None


def compute_gravity_on_tree(
    tree: Tree,
    theta: float = 0.7,
    G: float = 1.0,
    softening: float = 0.0,
    traverser: str = Configuration.traverser,
    with_quadrupole: bool = False,
    with_potential: bool = False,
    targets: np.ndarray | None = None,
    recorder: Recorder | None = None,
) -> GravityResult:
    """Barnes-Hut accelerations for an already-built tree."""
    arrays = compute_centroid_arrays(tree, theta=theta, with_quadrupole=with_quadrupole)
    visitor = GravityVisitor(
        tree, arrays, G=G, softening=softening, with_potential=with_potential
    )
    engine = get_traverser(traverser)
    stats = engine.traverse(tree, visitor, targets, recorder)
    accel = tree.particles.scatter_to_input_order(visitor.accel)
    potential = (
        tree.particles.scatter_to_input_order(visitor.potential)
        if visitor.potential is not None
        else None
    )
    return GravityResult(
        tree=tree, accel=accel, stats=stats, visitor=visitor, potential=potential
    )


def compute_gravity(
    particles: ParticleSet,
    theta: float = 0.7,
    G: float = 1.0,
    softening: float = 0.0,
    tree_type: str = "oct",
    bucket_size: int = 16,
    traverser: str = Configuration.traverser,
    with_quadrupole: bool = False,
    with_potential: bool = False,
    recorder: Recorder | None = None,
) -> GravityResult:
    """Build a tree over ``particles`` and compute Barnes-Hut accelerations.

    ``result.accel`` is aligned with the input particle order.
    """
    tree = build_tree(particles, tree_type=tree_type, bucket_size=bucket_size)
    return compute_gravity_on_tree(
        tree,
        theta=theta,
        G=G,
        softening=softening,
        traverser=traverser,
        with_quadrupole=with_quadrupole,
        with_potential=with_potential,
        recorder=recorder,
    )


class GravityDriver(Driver):
    """The paper's ``GravityMain`` (Fig 8) as a reusable Driver.

    Each iteration computes accelerations for all particles and (optionally)
    advances them with a leapfrog step; the accelerations of the last
    iteration are kept on ``self.accelerations`` in current particle order.
    """

    def __init__(
        self,
        config: Configuration | None = None,
        theta: float = 0.7,
        G: float = 1.0,
        softening: float = 0.0,
        dt: float = 0.0,
        with_quadrupole: bool = False,
    ) -> None:
        super().__init__(config)
        self.theta = theta
        self.G = G
        self.softening = softening
        self.dt = dt
        self.with_quadrupole = with_quadrupole
        self.accelerations: np.ndarray | None = None
        self._visitor: GravityVisitor | None = None

    def prepare(self, tree: Tree) -> None:
        arrays = compute_centroid_arrays(
            tree, theta=self.theta, with_quadrupole=self.with_quadrupole
        )
        self._visitor = GravityVisitor(tree, arrays, G=self.G, softening=self.softening)

    def traversal(self, iteration: int) -> None:
        assert self._visitor is not None
        self.partitions().start_down(self._visitor)
        self.accelerations = self._visitor.accel

    def post_traversal(self, iteration: int) -> None:
        if self.dt > 0 and self.accelerations is not None:
            from .integrator import kick_drift_kick_half

            kick_drift_kick_half(self.particles, self.accelerations, self.dt)

    def checkpoint_state(self) -> dict:
        if self.accelerations is None:
            return {}
        return {"accelerations": np.asarray(self.accelerations)}

    def restore_state(self, state: dict) -> None:
        acc = state.get("accelerations")
        self.accelerations = None if acc is None else np.asarray(acc)
