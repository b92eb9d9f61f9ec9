"""Applications built on the ParaTreeT abstractions, and the one table of them.

Each subpackage is one of the paper's evaluated workloads:

* :mod:`repro.apps.gravity`   — Barnes-Hut gravity (§III-A, Figs 6-10, Table II)
* :mod:`repro.apps.sph`       — smoothed-particle hydrodynamics (§III-B, Fig 11)
* :mod:`repro.apps.knn`       — k-nearest-neighbour searches (substrate for SPH)
* :mod:`repro.apps.collision` — planetesimal collision detection (§IV, Figs 12-13)

:data:`APPS` is the single place a pipeline's name is mapped to its Driver:
``repro <app>``, ``repro resume``, ``repro top <app>`` and ``repro explain``
all go through :func:`make_driver` with a *description* — ``(app,
app_config, Configuration dict, {kind, n, seed} dataset)``, which is also
exactly what a checkpoint stores.  Loading this module imports nothing else
of ``repro`` (the command line reads it to build its parser); Drivers are
imported on first use.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["APPS", "make_driver", "description", "declare",
           "dataset_options", "TREE_OPTIONS", "TRAVERSER"]


# -- option declarations -----------------------------------------------------
# One option is ``(flag, target, default[, help[, choices[, metavar]]])``.
# ``target`` says where its value goes in the run's description: a bare name
# is a keyword argument of the app's Driver, ``config.K`` a Configuration
# field, ``dataset.K`` a key of the dataset dict, None nowhere (the printer
# reads it).  A ``None`` default leaves the key out of the description unless
# the flag is given, so the Driver's or Configuration's own default applies.

def dataset_options(n_default: int) -> tuple:
    return (("--n", "dataset.n", n_default, "particle count"),
            ("--seed", "dataset.seed", 1))


TREE_OPTIONS = (
    ("--bucket", "config.bucket_size", 16, "leaf bucket size"),
    ("--tree", "config.tree_type", "oct", None, ["oct", "kd", "longest"]),
)


class _TopDownEngines:
    """``repro.core.top_down_engines()`` as an ``argparse`` choices container:
    the registry is imported when a value is checked, not when the parser
    is built (which is why the option names a metavar)."""

    def __iter__(self):
        from ..core import top_down_engines

        return iter(top_down_engines())

    def __contains__(self, name) -> bool:
        return name in tuple(self)


TRAVERSER = ("--traverser", "config.traverser", None,
             "top-down engine (default: Configuration.traverser)",
             _TopDownEngines(), "ENGINE")
_ITERATIONS = ("--iterations", "config.num_iterations", 1, "driver iterations")


def declare(parser, flag, target, default, help=None, choices=None, metavar=None) -> None:
    """Add one option to an ``argparse`` parser (``False`` defaults are
    switches; every other option takes a value of its default's type, a
    string when the default is ``None``)."""
    if default is False:
        parser.add_argument(flag, action="store_true", help=help)
    else:
        parser.add_argument(flag, type=str if default is None else type(default),
                            default=default, help=help, choices=choices, metavar=metavar)


def description(app: str, options: tuple, args) -> dict:
    """The :func:`make_driver` arguments that the parsed ``args`` spell out
    for ``app``, each of ``options`` filed under its target."""
    desc = {"app": app, "app_config": {}, "config": dict(APPS[app].config),
            "dataset": {"kind": APPS[app].dataset}}
    for flag, target, *_ in options:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if target is not None and value is not None:
            section, _, key = target.rpartition(".")
            desc[section or "app_config"][key] = value
    return desc


# -- result printers ---------------------------------------------------------

def _show_gravity(driver, args, wall: float) -> None:
    print(f"traversal: {wall:.2f}s  {driver.last_stats.as_dict()}")
    if args.check and len(driver.particles) <= 20_000:
        from .gravity import acceleration_error, direct_accelerations

        exact = direct_accelerations(driver.particles, softening=driver.softening)
        print(f"error vs direct sum: "
              f"{acceleration_error(driver.accelerations, exact)}")


def _show_sph(driver, args, wall: float) -> None:
    import numpy as np

    state = driver.state
    print(f"kNN density: {driver.config.num_iterations} iteration(s) in "
          f"{wall:.2f}s, median rho {np.median(state.density):.4f}, "
          f"pp={state.stats.pp_interactions:,}")
    if args.baseline:
        from .sph import gadget_style_density

        gd = gadget_style_density(driver.tree, k=driver.k)
        print(f"gadget-style: {gd.n_rounds} rounds, pp={gd.stats.pp_interactions:,} "
              f"({gd.stats.pp_interactions / state.stats.pp_interactions:.2f}x)")


def _show_knn(driver, args, wall: float) -> None:
    import numpy as np

    print(f"kNN k={driver.k}: {wall:.2f}s, "
          f"median d_k={np.median(driver.kth_distances()):.4f}, "
          f"pp={driver.result.stats.pp_interactions:,} "
          f"(brute force would be {len(driver.particles) ** 2:,})")


def _show_disk(driver, args, wall: float) -> None:
    print(f"{driver.config.num_iterations} steps in {wall:.1f}s; "
          f"collisions recorded: {len(driver.log)}")


def _show_correlation(driver, args, wall: float) -> None:
    res, edges = driver.result, driver.edges
    print(f"{'r_lo':>8} {'r_hi':>8} {'xi':>10} {'DD':>10}")
    for i in range(len(res.xi)):
        print(f"{edges[i]:8.4f} {edges[i + 1]:8.4f} "
              f"{res.xi[i]:10.3f} {res.dd[i]:10,}")


# -- the app table -----------------------------------------------------------

#: One batch pipeline — everything that differs between subcommands:
#:
#: * ``help`` — one line for ``repro --help``;
#: * ``driver`` — ``module:Class`` of the Driver, imported on first use;
#: * ``dataset`` — default dataset kind (a :data:`repro.particles.GENERATORS` key);
#: * ``options`` — the subcommand's own options (see "option declarations");
#: * ``show`` — prints the finished run: ``show(driver, args, wall_seconds)``;
#: * ``config`` — Configuration fields the pipeline fixes;
#: * ``groups`` — optional flag groups it also accepts (``"slo"``,
#:   ``"critical_path"``).
App = namedtuple("App", "help driver dataset options show config groups",
                 defaults=({}, ()))


APPS = {
    "gravity": App(
        "Barnes-Hut gravity solve", "repro.apps.gravity:GravityDriver", "clumps",
        (*dataset_options(20_000), *TREE_OPTIONS,
         ("--theta", "theta", 0.7), ("--softening", "softening", 1e-3),
         TRAVERSER, ("--quadrupole", "with_quadrupole", False),
         ("--check", None, False, "compare to direct sum"), _ITERATIONS,
         ("--dt", "dt", 0.0, "leapfrog timestep (0 = forces only, no integration)")),
        _show_gravity, groups=("slo", "critical_path")),
    "sph": App(
        "SPH density estimation", "repro.apps.sph:SPHDriver", "cube",
        (*dataset_options(6_000), *TREE_OPTIONS, ("--k", "k_neighbors", 32),
         ("--baseline", None, False, "run Gadget-style too"), _ITERATIONS,
         ("--dt", "dt", 0.0, "leapfrog timestep (0 = density/forces only)")),
        _show_sph),
    "knn": App(
        "k-nearest-neighbour search", "repro.apps.knn:KNNDriver", "clumps",
        (*dataset_options(20_000), *TREE_OPTIONS, ("--k", "k", 8), _ITERATIONS),
        _show_knn),
    "disk": App(
        "planetesimal disk with collisions",
        "repro.apps.collision:PlanetesimalDriver", "disk",
        (*dataset_options(4_000), ("--steps", "config.num_iterations", 30),
         ("--dt", "dt", 0.02), ("--radius", "dataset.planetesimal_radius", 2.5e-3)),
        _show_disk,
        config={"tree_type": "longest", "decomp_type": "longest",
                "num_partitions": 16, "num_subtrees": 16},
        groups=("critical_path",)),
    "correlation": App(
        "two-point correlation function",
        "repro.apps.correlation:CorrelationDriver", "clumps",
        (*dataset_options(2_000), ("--rmin", "rmin", 0.01), ("--rmax", "rmax", 1.0),
         ("--bins", "bins", 8)),
        _show_correlation),
}


def make_driver(app: str, app_config: dict | None = None,
                config: dict | None = None, dataset: dict | None = None):
    """The one way a Driver is made: from the description a checkpoint
    stores — the app's name, its Driver's keyword arguments and a
    ``Configuration.to_dict()`` — plus, for a fresh run, the ``{kind, n,
    seed}`` dataset dict to generate particles from (a resumed run takes
    them from the checkpoint).  Raises ``ValueError`` for an unknown app,
    keyword, configuration key or dataset kind."""
    import importlib

    from ..core import Configuration

    if app not in APPS:
        raise ValueError(f"unknown application {app!r}; known: {sorted(APPS)}")
    module, _, name = APPS[app].driver.partition(":")
    cls = getattr(importlib.import_module(module), name)
    try:
        driver = cls(Configuration.from_dict(config or {}), **(app_config or {}))
    except TypeError as exc:  # a keyword the Driver does not take
        raise ValueError(f"bad {app} app_config: {exc}") from None
    if dataset is not None:
        from ..particles import generate

        driver.particles = generate(dataset)
    return driver
