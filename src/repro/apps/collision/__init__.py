"""Planetesimal-disk case study (paper §IV, Figs 12-13).

A disk of solid planetesimals orbits a star with an embedded giant planet;
gravitational interactions are tracked among all bodies, and the
planetesimals — solid objects with finite radii — are tested for collisions
every step.  Near mean-motion resonances with the planet the eccentricity
pumping makes orbits cross, producing the collision profile of Fig 12.
"""

from .orbits import (
    resonance_excess,
    orbital_elements,
    orbital_period,
    resonance_semi_major_axis,
    RESONANCES,
)
from .detector import CollisionEvent, detect_collisions, closest_approach
from .driver import PlanetesimalDriver, CollisionLog

__all__ = [
    "orbital_elements",
    "resonance_excess",
    "orbital_period",
    "resonance_semi_major_axis",
    "RESONANCES",
    "CollisionEvent",
    "detect_collisions",
    "closest_approach",
    "PlanetesimalDriver",
    "CollisionLog",
]
