"""The planetesimal-disk Driver: gravity + collision detection per step.

This is the paper's §IV application: "The iteration step includes tree
building, calculating gravitational forces, and detecting collisions."  The
gravity traversal runs through whichever tree/decomposition the
configuration selects (octree vs longest-dimension is exactly the Fig 13
comparison), collisions are detected in ``postTraversal``, and each event is
logged with the orbital elements of the involved bodies at impact — the raw
data behind Fig 12's profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...core import Configuration, Driver
from ...particles.generators import G_AU_MSUN_YR
from ...trees import Tree
from ..gravity import GravityVisitor, compute_centroid_arrays
from .detector import detect_collisions
from .orbits import orbital_elements, orbital_period

__all__ = ["CollisionLog", "PlanetesimalDriver"]


@dataclass
class CollisionLog:
    """Accumulated collision records across a run."""

    times: list[float] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)       # heliocentric r
    semi_major_axes: list[float] = field(default_factory=list)
    periods: list[float] = field(default_factory=list)
    eccentricities: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "time": np.asarray(self.times),
            "distance": np.asarray(self.distances),
            "a": np.asarray(self.semi_major_axes),
            "period": np.asarray(self.periods),
            "e": np.asarray(self.eccentricities),
        }


class PlanetesimalDriver(Driver):
    """Evolve a planetesimal disk with gravity + collision detection.

    Parameters
    ----------
    dt:
        Step in years.  The paper evolves 2 000 yr (~150 perturber orbits);
        scaled runs use fewer.
    theta:
        Gravity opening angle.
    merge:
        When True, colliding pairs merge inelastically (mass-weighted);
        when False collisions are only recorded (the Fig 12 analysis needs
        the record, not the merge).
    """

    def __init__(
        self,
        config: Configuration | None = None,
        dt: float = 0.02,
        theta: float = 0.7,
        softening: float = 1e-4,
        merge: bool = False,
        star_mass: float = 1.0,
    ) -> None:
        super().__init__(config)
        self.dt = dt
        self.theta = theta
        self.softening = softening
        self.merge = merge
        self.star_mass = star_mass
        self.log = CollisionLog()
        self.time = 0.0
        self._visitor: GravityVisitor | None = None

    def prepare(self, tree: Tree) -> None:
        arrays = compute_centroid_arrays(tree, theta=self.theta)
        self._visitor = GravityVisitor(
            tree, arrays, G=G_AU_MSUN_YR, softening=self.softening
        )

    def traversal(self, iteration: int) -> None:
        assert self._visitor is not None
        self.partitions().start_down(self._visitor)

    def post_traversal(self, iteration: int) -> None:
        accel = self._visitor.accel
        p = self.particles
        # Kick-drift (the closing kick folds into the next step's forces:
        # standard for collision codes where positions must be checked
        # mid-drift).
        p.velocity += accel * self.dt
        # Collision check over the upcoming drift segment.
        exclude = p.ptype != 0 if p.has_field("ptype") else None
        events, _ = detect_collisions(
            self.tree, self.dt, exclude_types=exclude
        )
        star_pos, star_vel = self._star_state()
        for ev in events:
            # Elements of one of the two bodies at impact (paper: "the
            # orbital period of one of the two bodies at the moment of
            # impact").
            rel_p = p.position[ev.i] - star_pos
            rel_v = p.velocity[ev.i] - star_vel
            el = orbital_elements(rel_p, rel_v, star_mass=self.star_mass)
            a = float(el["a"][0])
            self.log.times.append(self.time + ev.time)
            self.log.distances.append(float(np.linalg.norm(ev.position - star_pos)))
            self.log.semi_major_axes.append(a)
            self.log.periods.append(float(orbital_period(a, star_mass=self.star_mass)))
            self.log.eccentricities.append(float(el["e"][0]))
        if self.merge and events:
            self._merge_pairs(events)
            p = self.particles  # the survivors: merging selects a new set
        p.position += p.velocity * self.dt
        self.time += self.dt

    def checkpoint_state(self) -> dict:
        # The collision log and the accumulated clock are run-level state a
        # resume must carry: losing either breaks the Fig 12 analysis of a
        # recovered run.
        state = {f"log_{k}": v for k, v in self.log.as_arrays().items()}
        state["time"] = np.float64(self.time)
        return state

    def restore_state(self, state: dict) -> None:
        t = state.get("time")
        if t is not None:
            # scalars round-trip through the npz as shape-(1,) arrays
            self.time = float(np.asarray(t).ravel()[0])
        self.log = CollisionLog(
            times=[float(v) for v in np.atleast_1d(state.get("log_time", []))],
            distances=[float(v) for v in np.atleast_1d(state.get("log_distance", []))],
            semi_major_axes=[float(v) for v in np.atleast_1d(state.get("log_a", []))],
            periods=[float(v) for v in np.atleast_1d(state.get("log_period", []))],
            eccentricities=[float(v) for v in np.atleast_1d(state.get("log_e", []))],
        )

    # -- helpers ---------------------------------------------------------------
    def _star_state(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.particles
        if p.has_field("ptype"):
            star = np.flatnonzero(p.ptype == 1)
            if len(star):
                return p.position[star[0]].copy(), p.velocity[star[0]].copy()
        return np.zeros(3), np.zeros(3)

    def _merge_pairs(self, events) -> None:
        """Perfect merging: survivor takes combined mass & momentum; the
        partner is removed from the particle set."""
        p = self.particles
        dead: set[int] = set()
        for ev in events:
            if ev.i in dead or ev.j in dead:
                continue
            mi, mj = float(p.mass[ev.i]), float(p.mass[ev.j])
            tot = mi + mj
            p.position[ev.i] = (mi * p.position[ev.i] + mj * p.position[ev.j]) / tot
            p.velocity[ev.i] = (mi * p.velocity[ev.i] + mj * p.velocity[ev.j]) / tot
            p.mass[ev.i] = tot
            if p.has_field("radius"):
                p.radius[ev.i] = (p.radius[ev.i] ** 3 + p.radius[ev.j] ** 3) ** (1 / 3)
            dead.add(ev.j)
        if dead:
            keep = np.ones(len(p), dtype=bool)
            keep[list(dead)] = False
            self.particles = p.select(keep)
