"""Keplerian orbital mechanics for the disk case study.

Units follow the generator (:mod:`repro.particles.generators`): AU, years,
solar masses, G = 4π².
"""

from __future__ import annotations

import numpy as np

from ...particles.generators import G_AU_MSUN_YR

__all__ = [
    "orbital_elements",
    "orbital_period",
    "resonance_semi_major_axis",
    "RESONANCES",
]

#: The resonances marked in Fig 12 (period ratios planetesimal:planet),
#: left to right in the figure: 3:1, 2:1, 5:3.
RESONANCES: tuple[tuple[int, int], ...] = ((3, 1), (2, 1), (5, 3))


def orbital_elements(
    position: np.ndarray,
    velocity: np.ndarray,
    mu: float | None = None,
    star_mass: float = 1.0,
) -> dict[str, np.ndarray]:
    """Heliocentric osculating elements from state vectors.

    Returns dict with ``a`` (semi-major axis), ``e`` (eccentricity),
    ``inc`` (inclination, rad), and ``r`` (current heliocentric distance).
    Works on (N, 3) arrays; the star is assumed at the origin.
    """
    if mu is None:
        mu = G_AU_MSUN_YR * star_mass
    pos = np.atleast_2d(np.asarray(position, dtype=np.float64))
    vel = np.atleast_2d(np.asarray(velocity, dtype=np.float64))
    r = np.linalg.norm(pos, axis=1)
    v2 = np.einsum("ij,ij->i", vel, vel)
    hvec = np.cross(pos, vel)
    h = np.linalg.norm(hvec, axis=1)
    # a body on the star's position (r = 0) gets NaN elements, not a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        # Vis-viva: 1/a = 2/r − v²/μ.
        inv_a = 2.0 / r - v2 / mu
        a = np.where(inv_a != 0, 1.0 / inv_a, np.inf)
        # e from the eccentricity vector.
        evec = np.cross(vel, hvec) / mu - pos / r[:, None]
        inc = np.arccos(np.clip(np.where(h > 0, hvec[:, 2] / h, 1.0), -1.0, 1.0))
    e = np.linalg.norm(evec, axis=1)
    return {"a": a, "e": e, "inc": inc, "r": r}


def orbital_period(a: np.ndarray, mu: float | None = None, star_mass: float = 1.0) -> np.ndarray:
    """Kepler's third law: T = 2π sqrt(a³/μ); in these units T(1 AU) = 1 yr
    for a solar-mass star."""
    if mu is None:
        mu = G_AU_MSUN_YR * star_mass
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return 2.0 * np.pi * np.sqrt(np.where(a > 0, a, np.nan) ** 3 / mu)


def resonance_semi_major_axis(planet_a: float, p: int, q: int) -> float:
    """Semi-major axis of the interior p:q mean-motion resonance.

    A planetesimal in p:q resonance completes p orbits per q planet orbits,
    so ``T_pl/T_p = q/p`` and ``a = a_p (q/p)^{2/3}``.  For the paper's
    planet at 5.2 AU the 2:1 resonance lands at ≈ 3.27 AU ("most of which
    are associated with high eccentricity particles near the 2:1 resonance
    at 3.27 AU").
    """
    if p <= 0 or q <= 0 or p < q:
        raise ValueError("expect interior resonance with p >= q >= 1")
    return planet_a * (q / p) ** (2.0 / 3.0)


def resonance_excess(
    semi_major_axes: np.ndarray,
    planet_a: float,
    resonances: tuple[tuple[int, int], ...] = RESONANCES,
    window: float = 0.08,
    background_window: float = 0.25,
) -> dict[tuple[int, int], float]:
    """Collision excess near each resonance relative to its neighbourhood.

    For each p:q resonance, the collision *density* (per unit semi-major
    axis) within ``window`` AU of the resonance is divided by the density
    in the surrounding ``background_window`` annulus (excluding the
    window).  Values above 1 mean the resonance collects collisions faster
    than its surroundings — the Fig 12 signal.
    """
    a = np.asarray(semi_major_axes, dtype=np.float64)
    a = a[np.isfinite(a)]
    out: dict[tuple[int, int], float] = {}
    for p, q in resonances:
        a_res = resonance_semi_major_axis(planet_a, p, q)
        near = np.abs(a - a_res) < window
        around = (np.abs(a - a_res) < background_window) & ~near
        density_near = near.sum() / (2 * window)
        bg_width = 2 * (background_window - window)
        density_bg = around.sum() / bg_width if bg_width > 0 else 0.0
        out[(p, q)] = float(density_near / density_bg) if density_bg > 0 else np.inf
    return out
