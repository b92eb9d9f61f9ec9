"""``GravityVisitor`` (paper Fig 7), written once in the pair form.

``open_pairs`` is the MAC, ``node_pairs`` the centroid approximation and
``leaf_pairs`` the exact bucket-bucket sum.  Both accumulating hooks hand
one kernel of :mod:`repro.trees.kernels` the same thing — each target
bucket of the slice against its list of point masses (closed nodes'
centroids, opened leaves' particles) — accumulating into one acceleration
array aligned with tree order.  Which
pairs arrive together and in what order is the Traverser's business
(batched, transposed, per-bucket, up-and-down: schedules over these three
hooks); the scalar ``open``/``node``/``leaf`` the dual-tree engine calls are
the base class's one-pair default.
"""

from __future__ import annotations

import functools

import numpy as np

from ...core.util import ranges_to_indices
from ...core.visitor import Visitor
from ...trees import Tree
from .centroid import GravityNodeArrays

__all__ = ["GravityVisitor"]


class GravityVisitor(Visitor):
    """Barnes-Hut gravity: prune with the MAC sphere, approximate with the
    node centroid (monopole, optionally + quadrupole), evaluate leaves
    exactly.

    Accumulates into :attr:`accel` (N, 3), indexed in tree order; with
    ``with_potential=True`` the (monopole) potential lands in
    :attr:`potential` as well, enabling energy tracking.
    """

    def __init__(
        self,
        tree: Tree,
        node_arrays: GravityNodeArrays,
        G: float = 1.0,
        softening: float = 0.0,
        with_potential: bool = False,
    ) -> None:
        self.tree = tree
        self.arrays = node_arrays
        self.G = float(G)
        self.softening = float(softening)
        self.accel = np.zeros((tree.n_particles, 3))
        self.potential = np.zeros(tree.n_particles) if with_potential else None

    # -- parallel-execution protocol (repro.exec) ----------------------------
    # All writes hit self.accel/self.potential rows of the targets being
    # traversed, so every chunk attempt ships back its per-chunk rows.
    def exec_config(self) -> dict:
        return {
            "G": self.G,
            "softening": self.softening,
            "with_potential": self.potential is not None,
        }

    def exec_arrays(self) -> dict[str, np.ndarray]:
        out = {
            "centroid": self.arrays.centroid,
            "mass": self.arrays.mass,
            "open_radius_sq": self.arrays.open_radius_sq,
        }
        if self.arrays.quad is not None:
            out["quad"] = self.arrays.quad
        return out

    @classmethod
    def exec_rebuild(cls, tree: Tree, arrays: dict[str, np.ndarray], config: dict) -> "GravityVisitor":
        node_arrays = GravityNodeArrays(
            mass=arrays["mass"],
            centroid=arrays["centroid"],
            open_radius_sq=arrays["open_radius_sq"],
            quad=arrays.get("quad"),
        )
        return cls(tree, node_arrays, G=config["G"], softening=config["softening"],
                   with_potential=config["with_potential"])

    def exec_collect(self, tree: Tree, targets: np.ndarray) -> dict[str, np.ndarray]:
        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        out = {"accel": self.accel[rows]}
        if self.potential is not None:
            out["potential"] = self.potential[rows]
        return out

    def exec_apply(self, tree: Tree, targets: np.ndarray, outputs: dict[str, np.ndarray]) -> None:
        rows = ranges_to_indices(tree.pstart[targets], tree.pend[targets])
        self.accel[rows] = outputs["accel"]
        if self.potential is not None:
            self.potential[rows] = outputs["potential"]

    # -- the hooks: frontier kernels from repro.trees.kernels ----------------
    # One call per engine slice.  A call's pairs become each target's
    # interaction list (``list_layout``): a closed node is one item,
    # an opened leaf its particles.  The hooks gather the item tables, at
    # list length, and one kernel call adds every row's list into accel /
    # potential.

    @functools.cached_property
    def _pair_tables(self) -> dict:
        """Structure-of-arrays copies the pair hooks gather from, made once
        per visitor."""
        from ...trees.kernels import components, symmetric_components

        tree, quad = self.tree, self.arrays.quad
        return {
            "source": components(tree.particles.position),
            "source_gm": self.G * tree.particles.mass,
            "centroid": components(self.arrays.centroid),
            "centroid_gm": self.G * self.arrays.mass,
            "box_lo": components(tree.box_lo), "box_hi": components(tree.box_hi),
            "quad": None if quad is None else symmetric_components(quad),
        }

    def open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        from ...trees.kernels import mac_open_pairs

        tables = self._pair_tables
        return mac_open_pairs(
            [c[targets] for c in tables["box_lo"]],
            [c[targets] for c in tables["box_hi"]],
            [c[sources] for c in tables["centroid"]],
            self.arrays.open_radius_sq[sources],
        )

    def node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        tables = self._pair_tables
        quad = None if tables["quad"] is None else [q[sources] for q in tables["quad"]]
        self._accumulate(tree, targets, None, [c[sources] for c in tables["centroid"]],
                         tables["centroid_gm"][sources], quad)

    def leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        tables = self._pair_tables
        sstart, send = tree.pstart[sources], tree.pend[sources]
        items = ranges_to_indices(sstart, send)
        self._accumulate(tree, targets, send - sstart, [c[items] for c in tables["source"]],
                         tables["source_gm"][items])

    def _accumulate(self, tree, targets, n_items, source, gm, quad=None) -> None:
        """The targets' interaction lists — ``n_items`` per pair, from the
        item tables — into accel and, if tracked, the potential: one layout,
        one kernel call per output."""
        from ...trees.kernels import accumulate_point_masses, list_layout

        if not len(targets):
            return
        layout = list_layout(targets, tree.pstart[targets], tree.pend[targets], n_items)
        for out in (self.accel, self.potential):
            if out is not None:
                accumulate_point_masses(out, layout, self._pair_tables["source"], source, gm,
                                        self.softening, quad, self.G)
