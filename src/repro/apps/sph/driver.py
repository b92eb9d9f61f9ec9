"""SPH application Driver: kNN density + pressure forces each iteration."""

from __future__ import annotations

import numpy as np

from ...core import Configuration
from ...trees import Tree
from ..knn import KNNDriver
from .density import SPHState, state_from_neighbors
from .forces import compute_pressure_forces, equation_of_state

__all__ = ["SPHDriver"]


class SPHDriver(KNNDriver):
    """Each iteration: kNN traversal → density → pressure → pair forces.

    The traversal step is :class:`~repro.apps.knn.KNNDriver`'s up-and-down
    search (the paper's choice for criteria that tighten mid-traversal);
    the force evaluation is ``postTraversal`` physics.  Set ``dt > 0`` to
    leapfrog the particles.
    """

    def __init__(
        self,
        config: Configuration | None = None,
        k_neighbors: int = 32,
        gamma: float = 5.0 / 3.0,
        internal_energy: float = 1.0,
        dt: float = 0.0,
    ) -> None:
        super().__init__(config, k=k_neighbors)
        self.gamma = gamma
        self.internal_energy = internal_energy
        self.dt = dt
        self.state: SPHState | None = None
        self.pressure: np.ndarray | None = None
        self.accelerations: np.ndarray | None = None

    def prepare(self, tree: Tree) -> None:
        super().prepare(tree)
        self.state = None  # densities recomputed per iteration

    def traversal(self, iteration: int) -> None:
        super().traversal(iteration)
        self.state = state_from_neighbors(self.tree, self.result)

    def post_traversal(self, iteration: int) -> None:
        assert self.state is not None
        self.pressure = equation_of_state(
            self.state.density, internal_energy=self.internal_energy, gamma=self.gamma
        )
        self.accelerations = compute_pressure_forces(
            self.tree,
            self.state.neighbors,
            self.state.density,
            self.pressure,
            self.state.h,
        )
        if self.dt > 0:
            self.particles.velocity += self.accelerations * self.dt
            self.particles.position += self.particles.velocity * self.dt

    def checkpoint_state(self) -> dict:
        # Density/neighbour state is recomputed from particles every
        # iteration; only the last derived outputs are worth carrying.
        state = {}
        if self.pressure is not None:
            state["pressure"] = np.asarray(self.pressure)
        if self.accelerations is not None:
            state["accelerations"] = np.asarray(self.accelerations)
        return state

    def restore_state(self, state: dict) -> None:
        p = state.get("pressure")
        a = state.get("accelerations")
        self.pressure = None if p is None else np.asarray(p)
        self.accelerations = None if a is None else np.asarray(a)
