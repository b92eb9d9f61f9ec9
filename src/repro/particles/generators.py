"""Initial-condition generators for the paper's workloads.

The evaluation uses three particle distributions:

* a *uniform* cosmological volume (Fig 10 gravity, Fig 11 SPH),
* a *clustered* dataset (Fig 3 cache-model study) — we model clustering as a
  superposition of Plummer clumps on a uniform background, which produces the
  deep, imbalanced octrees that stress caching and decomposition,
* a *Keplerian planetesimal disk* with an embedded giant planet
  (Figs 12 & 13 case study).

All generators take an explicit ``seed`` and are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .particles import ParticleSet

__all__ = [
    "uniform_cube",
    "plummer_sphere",
    "clustered_clumps",
    "keplerian_disk",
    "DiskParams",
    "GENERATORS",
    "generate",
]


def uniform_cube(
    n: int,
    side: float = 1.0,
    total_mass: float = 1.0,
    seed: int = 0,
    velocity_dispersion: float = 0.0,
) -> ParticleSet:
    """Uniform random particles in a cube centred on the origin."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-side / 2, side / 2, size=(n, 3))
    vel = (
        rng.normal(0.0, velocity_dispersion, size=(n, 3))
        if velocity_dispersion > 0
        else np.zeros((n, 3))
    )
    mass = np.full(n, total_mass / n)
    return ParticleSet(pos, vel, mass)


def plummer_sphere(
    n: int,
    scale_radius: float = 1.0,
    total_mass: float = 1.0,
    seed: int = 0,
    center=(0.0, 0.0, 0.0),
    max_radius_factor: float = 10.0,
) -> ParticleSet:
    """Plummer-model sphere (Aarseth, Henon & Wielen 1974 sampling).

    Radius is drawn by inverting the cumulative mass profile
    ``M(r) = M (r/a)^3 / (1 + (r/a)^2)^{3/2}``; directions are isotropic.
    Velocities are set to zero (the paper's traversal studies are
    force-evaluation benchmarks, not dynamical evolution).
    """
    rng = np.random.default_rng(seed)
    # Inverse-CDF radius sampling, clipped to avoid unbounded outliers.
    x = rng.uniform(0.0, 1.0, n)
    x = np.clip(x, 1e-10, 1 - 1e-10)
    r = scale_radius / np.sqrt(x ** (-2.0 / 3.0) - 1.0)
    r = np.minimum(r, max_radius_factor * scale_radius)
    # Isotropic directions.
    cos_t = rng.uniform(-1.0, 1.0, n)
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = rng.uniform(0.0, 2 * np.pi, n)
    pos = np.column_stack(
        [r * sin_t * np.cos(phi), r * sin_t * np.sin(phi), r * cos_t]
    ) + np.asarray(center, dtype=np.float64)
    mass = np.full(n, total_mass / n)
    return ParticleSet(pos, np.zeros((n, 3)), mass)


def clustered_clumps(
    n: int,
    n_clumps: int = 8,
    side: float = 1.0,
    background_fraction: float = 0.2,
    clump_scale: float = 0.02,
    total_mass: float = 1.0,
    seed: int = 0,
) -> ParticleSet:
    """Clustered distribution: Plummer clumps over a uniform background.

    Mimics the highly non-uniform datasets (e.g. evolved cosmological
    volumes) the paper uses for the Fig 3 cache study; produces octrees with
    large depth variance, which drives remote-fetch imbalance.
    """
    if not 0.0 <= background_fraction <= 1.0:
        raise ValueError("background_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n_bg = int(round(n * background_fraction))
    n_cl = n - n_bg
    pieces: list[ParticleSet] = []
    if n_bg:
        pieces.append(uniform_cube(n_bg, side=side, total_mass=1.0, seed=seed + 1))
    if n_cl and n_clumps > 0:
        counts = np.full(n_clumps, n_cl // n_clumps)
        counts[: n_cl % n_clumps] += 1
        centers = rng.uniform(-0.4 * side, 0.4 * side, size=(n_clumps, 3))
        for k, (cnt, c) in enumerate(zip(counts, centers)):
            if cnt == 0:
                continue
            pieces.append(
                plummer_sphere(
                    int(cnt),
                    scale_radius=clump_scale * side,
                    total_mass=1.0,
                    seed=seed + 100 + k,
                    center=c,
                    max_radius_factor=5.0,
                )
            )
    out = ParticleSet.concatenate(pieces)
    out.mass[:] = total_mass / len(out)
    # Restore a fresh identity ordering: pieces each carried their own indices.
    out._fields["orig_index"] = np.arange(len(out), dtype=np.int64)
    return out


@dataclass
class DiskParams:
    """Parameters of the planetesimal-disk generator (paper §IV).

    Defaults follow the case study: a disk of planetesimals around a solar
    mass star with a Jupiter-mass planet at 5.2 AU.  Units: AU, years,
    solar masses, with G = 4π² (so a 1 AU circular orbit has period 1 yr).
    """

    inner_radius: float = 2.0       # AU
    outer_radius: float = 4.0       # AU
    star_mass: float = 1.0          # M_sun
    planet_mass: float = 9.55e-4    # M_sun (Jupiter)
    planet_radius_au: float = 5.2   # semi-major axis of the perturber
    planetesimal_total_mass: float = 1e-6
    planetesimal_radius: float = 3.3e-7  # 50 km in AU
    eccentricity_dispersion: float = 1e-3
    inclination_dispersion: float = 5e-4
    surface_density_exponent: float = -1.5  # Sigma ~ r^-3/2 (MMSN)


#: Gravitational constant in AU^3 / (M_sun yr^2).
G_AU_MSUN_YR = 4.0 * np.pi**2


def keplerian_disk(
    n: int,
    params: DiskParams | None = None,
    seed: int = 0,
    include_star: bool = True,
    include_planet: bool = True,
) -> ParticleSet:
    """Planetesimal disk on near-circular, near-coplanar Keplerian orbits.

    Returns a ParticleSet with extra fields:

    * ``radius`` — physical radius for collision detection,
    * ``ptype`` — 0 planetesimal, 1 star, 2 planet.

    The star sits at the origin and the planet on a circular orbit; both are
    included as particles so the same gravity traversal handles them.
    """
    p = params or DiskParams()
    rng = np.random.default_rng(seed)
    # Sample semi-major axes from Sigma(r) ~ r^alpha => P(a) ~ a^(alpha+1).
    k = p.surface_density_exponent + 1.0
    u = rng.uniform(0.0, 1.0, n)
    if abs(k + 1.0) < 1e-12:
        a = p.inner_radius * (p.outer_radius / p.inner_radius) ** u
    else:
        lo, hi = p.inner_radius ** (k + 1.0), p.outer_radius ** (k + 1.0)
        a = (lo + u * (hi - lo)) ** (1.0 / (k + 1.0))
    ecc = np.abs(rng.rayleigh(p.eccentricity_dispersion, n))
    inc = np.abs(rng.rayleigh(p.inclination_dispersion, n))
    # Random phase angles.
    omega = rng.uniform(0, 2 * np.pi, n)   # argument of pericentre
    capom = rng.uniform(0, 2 * np.pi, n)   # longitude of ascending node
    nu = rng.uniform(0, 2 * np.pi, n)      # true anomaly

    mu = G_AU_MSUN_YR * p.star_mass
    pos, vel = _elements_to_cartesian(a, ecc, inc, omega, capom, nu, mu)

    mass = np.full(n, p.planetesimal_total_mass / max(n, 1))
    radius = np.full(n, p.planetesimal_radius)
    ptype = np.zeros(n, dtype=np.int8)

    bodies = [pos]
    vels = [vel]
    masses = [mass]
    radii = [radius]
    types = [ptype]
    if include_planet:
        v_circ = np.sqrt(mu / p.planet_radius_au)
        bodies.append(np.array([[p.planet_radius_au, 0.0, 0.0]]))
        vels.append(np.array([[0.0, v_circ, 0.0]]))
        masses.append(np.array([p.planet_mass]))
        radii.append(np.array([4.78e-4]))  # Jupiter radius in AU
        types.append(np.array([2], dtype=np.int8))
    if include_star:
        bodies.append(np.zeros((1, 3)))
        vels.append(np.zeros((1, 3)))
        masses.append(np.array([p.star_mass]))
        radii.append(np.array([4.65e-3]))  # solar radius in AU
        types.append(np.array([1], dtype=np.int8))

    return ParticleSet(
        np.concatenate(bodies),
        np.concatenate(vels),
        np.concatenate(masses),
        radius=np.concatenate(radii),
        ptype=np.concatenate(types),
    )


def _disk(n: int, seed: int = 0, **params) -> ParticleSet:
    return keplerian_disk(n, DiskParams(**params), seed=seed)


#: dataset ``kind`` -> generator
GENERATORS = {
    "cube": uniform_cube,
    "clumps": clustered_clumps,
    "plummer": plummer_sphere,
    "disk": _disk,
}


def generate(dataset: dict) -> ParticleSet:
    """The particle set a ``{kind, n, seed}`` dataset dict describes (the
    description ``repro serve`` and every batch pipeline are made from);
    any further key is a keyword argument of that kind's generator."""
    options = dict(dataset)
    kind = options.pop("kind")
    if kind not in GENERATORS:
        raise ValueError(f"unknown dataset kind {kind!r} "
                         f"(expected one of {', '.join(GENERATORS)})")
    return GENERATORS[kind](int(options.pop("n")), seed=int(options.pop("seed")),
                            **options)


def _elements_to_cartesian(a, ecc, inc, omega, capom, nu, mu):
    """Convert Keplerian orbital elements to Cartesian state vectors.

    Standard perifocal-to-inertial rotation; all inputs are arrays of equal
    length, ``mu`` is the standard gravitational parameter.
    """
    a = np.asarray(a, dtype=np.float64)
    semilatus = a * (1.0 - ecc**2)
    r = semilatus / (1.0 + ecc * np.cos(nu))
    # Perifocal coordinates.
    x_pf = r * np.cos(nu)
    y_pf = r * np.sin(nu)
    vfac = np.sqrt(mu / semilatus)
    vx_pf = -vfac * np.sin(nu)
    vy_pf = vfac * (ecc + np.cos(nu))

    co, so = np.cos(omega), np.sin(omega)
    cO, sO = np.cos(capom), np.sin(capom)
    ci, si = np.cos(inc), np.sin(inc)

    # Rotation matrix rows (perifocal -> inertial).
    r11 = cO * co - sO * so * ci
    r12 = -cO * so - sO * co * ci
    r21 = sO * co + cO * so * ci
    r22 = -sO * so + cO * co * ci
    r31 = so * si
    r32 = co * si

    pos = np.column_stack(
        [r11 * x_pf + r12 * y_pf, r21 * x_pf + r22 * y_pf, r31 * x_pf + r32 * y_pf]
    )
    vel = np.column_stack(
        [r11 * vx_pf + r12 * vy_pf, r21 * vx_pf + r22 * vy_pf, r31 * vx_pf + r32 * vy_pf]
    )
    return pos, vel
