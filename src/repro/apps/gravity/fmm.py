"""A Cartesian Fast Multipole Method on the dual-tree traversal.

The paper's gravity solver "tracks higher order multipole expansions"
citing Greengard & Rokhlin's FMM [4]; dual-tree traversals with ``cell()``
are the §II-A-2 machinery such O(N) solvers need.  This module implements a
second-order Cartesian FMM on exactly those abstractions:

* **P2M/M2M** — node multipoles (mass + raw central quadrupole) about the
  node centroid, extracted with the same prefix-sum fast path as
  :mod:`repro.apps.gravity.centroid`;
* **M2L** — a dual-tree traversal whose Visitor translates a
  well-separated source node's multipole into a *local* Taylor expansion
  of the potential about the target node's centre (``node()``), refines
  non-separated pairs (``open``/``cell``), and evaluates leaf-leaf pairs
  exactly (``leaf()`` — P2P);
* **L2L/L2P** — a downward sweep pushes local expansions from parents to
  children and finally differentiates them at the particles.

Truncation is consistent at second order: local coefficients carry
``c0`` (potential), ``c1`` (field) and ``c2`` (field gradient), with the
source quadrupole contributing through the second and third derivative
tensors of 1/r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...core import TraversalStats, get_traverser
from ...core.util import segment_sums
from ...core.visitor import Visitor
from ...trees import SpatialNode, Tree, build_tree
from ...trees.kernels import pairwise_accel
from ...particles import ParticleSet

__all__ = ["FMMResult", "FMMVisitor", "compute_fmm_gravity", "derivative_tensors"]


def derivative_tensors(R: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """g = 1/r and its first three derivative tensors at separation R.

    ``g1_i = ∂_i (1/r)``, ``g2_ij = ∂_i ∂_j (1/r)``,
    ``g3_ijk = ∂_i ∂_j ∂_k (1/r)``; validated against finite differences in
    the test suite.
    """
    R = np.asarray(R, dtype=np.float64)
    r2 = float(R @ R)
    if r2 == 0.0:
        raise ValueError("derivative tensors are singular at R = 0")
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2
    eye = np.eye(3)
    g0 = inv_r
    g1 = -R * inv_r3
    g2 = 3.0 * np.outer(R, R) * inv_r5 - eye * inv_r3
    outer3 = np.einsum("i,j,k->ijk", R, R, R)
    sym = (
        np.einsum("i,jk->ijk", R, eye)
        + np.einsum("j,ik->ijk", R, eye)
        + np.einsum("k,ij->ijk", R, eye)
    )
    g3 = -15.0 * outer3 * inv_r7 + 3.0 * sym * inv_r5
    return g0, g1, g2, g3


@dataclass
class _Multipoles:
    """Per-node multipoles about the node centroid."""

    mass: np.ndarray       # (M,)
    center: np.ndarray     # (M, 3) expansion centres (centroids)
    quad: np.ndarray       # (M, 3, 3) raw central second moment Σ m d dᵀ
    radius: np.ndarray     # (M,) bounding radius of particles about centre


def _compute_multipoles(tree: Tree) -> _Multipoles:
    p = tree.particles
    m = p.mass
    mass = segment_sums(m, tree.pstart, tree.pend)
    moment = segment_sums(m[:, None] * p.position, tree.pstart, tree.pend)
    with np.errstate(divide="ignore", invalid="ignore"):
        center = np.where(mass[:, None] > 0, moment / mass[:, None], 0.0)
    xxT = np.einsum("pi,pj->pij", p.position, p.position) * m[:, None, None]
    second = segment_sums(xxT.reshape(len(p), 9), tree.pstart, tree.pend).reshape(-1, 3, 3)
    quad = second - mass[:, None, None] * np.einsum("ni,nj->nij", center, center)
    # Bounding radius: distance from centre to the farthest box corner
    # (cheap, conservative).
    d = np.maximum(np.abs(center - tree.box_lo), np.abs(tree.box_hi - center))
    radius = np.sqrt(np.einsum("ni,ni->n", d, d))
    return _Multipoles(mass=mass, center=center, quad=quad, radius=radius)


class FMMVisitor(Visitor):
    """Dual-tree M2L/P2P visitor accumulating local expansions."""

    def __init__(
        self,
        tree: Tree,
        multipoles: _Multipoles,
        theta: float = 0.5,
        G: float = 1.0,
        softening: float = 0.0,
    ) -> None:
        if not 0 < theta < 1:
            raise ValueError(f"FMM acceptance theta must be in (0, 1), got {theta}")
        self.tree = tree
        self.mp = multipoles
        self.theta = theta
        self.G = G
        self.softening = softening
        n = tree.n_nodes
        self.c0 = np.zeros(n)
        self.c1 = np.zeros((n, 3))
        self.c2 = np.zeros((n, 3, 3))
        self.accel = np.zeros((tree.n_particles, 3))
        self.m2l_count = 0
        self.p2p_pairs = 0

    # -- acceptance ----------------------------------------------------------
    def _well_separated(self, s: int, t: int) -> bool:
        R = self.mp.center[t] - self.mp.center[s]
        r = float(np.linalg.norm(R))
        if r == 0.0:
            return False
        return (self.mp.radius[s] + self.mp.radius[t]) < self.theta * r

    def open(self, source: SpatialNode, target: SpatialNode) -> bool:
        return not self._well_separated(source.index, target.index)

    def cell(self, source: SpatialNode, target: SpatialNode) -> bool:
        if source.index == target.index:
            return True
        # Open the larger side: cell()==True opens both, False only source.
        return self.mp.radius[target.index] >= self.mp.radius[source.index]

    # -- M2L -------------------------------------------------------------------
    def node(self, source: SpatialNode, target: SpatialNode) -> None:
        s, t = source.index, target.index
        M = float(self.mp.mass[s])
        if M == 0.0:
            return
        Q = self.mp.quad[s]
        R = self.mp.center[t] - self.mp.center[s]
        g0, g1, g2, g3 = derivative_tensors(R)
        G = self.G
        # phi(z_t + x) ≈ -G [ M g0 + ½ tr(g2 Q) ]  - G [ M g1 + ½ g3:Q ]·x
        #               - ½ G xᵀ [ M g2 ] x   (+ consistent truncation)
        self.c0[t] += -G * (M * g0 + 0.5 * float(np.einsum("ij,ij->", g2, Q)))
        self.c1[t] += -G * (M * g1 + 0.5 * np.einsum("ijk,jk->i", g3, Q))
        self.c2[t] += -G * (M * g2)
        self.m2l_count += 1

    # -- P2P ----------------------------------------------------------------------
    def leaf(self, source: SpatialNode, target: SpatialNode) -> None:
        tr = self.tree
        s, t = source.index, target.index
        ts, te = int(tr.pstart[t]), int(tr.pend[t])
        ss, se = int(tr.pstart[s]), int(tr.pend[s])
        self.accel[ts:te] += pairwise_accel(
            tr.particles.position[ts:te],
            tr.particles.position[ss:se],
            tr.particles.mass[ss:se],
            self.G,
            self.softening,
        )
        self.p2p_pairs += (te - ts) * (se - ss)

    # -- downward pass ----------------------------------------------------------------
    def downward(self) -> None:
        """L2L from the root down, then L2P at the leaves."""
        tree = self.tree
        for parent in tree.iter_preorder():
            fc = tree.first_child[parent]
            if fc == -1:
                continue
            for child in range(fc, fc + int(tree.n_children[parent])):
                b = self.mp.center[child] - self.mp.center[parent]
                self.c0[child] += (
                    self.c0[parent]
                    + self.c1[parent] @ b
                    + 0.5 * b @ self.c2[parent] @ b
                )
                self.c1[child] += self.c1[parent] + self.c2[parent] @ b
                self.c2[child] += self.c2[parent]
        # L2P: a = -∇phi = -(c1 + c2 x) at x = particle - centre.
        pos = tree.particles.position
        for leaf in tree.leaf_indices:
            s, e = int(tree.pstart[leaf]), int(tree.pend[leaf])
            x = pos[s:e] - self.mp.center[leaf]
            self.accel[s:e] += -(self.c1[leaf][None, :] + x @ self.c2[leaf].T)


@dataclass
class FMMResult:
    tree: Tree
    accel: np.ndarray  # input order
    stats: TraversalStats
    m2l_count: int
    p2p_pairs: int


def compute_fmm_gravity(
    particles_or_tree: ParticleSet | Tree,
    theta: float = 0.5,
    G: float = 1.0,
    softening: float = 0.0,
    tree_type: str = "oct",
    bucket_size: int = 32,
) -> FMMResult:
    """O(N)-style gravity: dual-tree M2L + near-field P2P + downward pass.

    ``theta`` is the well-separatedness acceptance: a node pair interacts
    through multipoles when ``(r_s + r_t) < theta * |R|``; smaller theta is
    more accurate and more expensive.
    """
    if isinstance(particles_or_tree, Tree):
        tree = particles_or_tree
    else:
        tree = build_tree(particles_or_tree, tree_type=tree_type, bucket_size=bucket_size)
    mp = _compute_multipoles(tree)
    visitor = FMMVisitor(tree, mp, theta=theta, G=G, softening=softening)
    stats = get_traverser("dual-tree").traverse(tree, visitor)
    visitor.downward()
    return FMMResult(
        tree=tree,
        accel=tree.particles.scatter_to_input_order(visitor.accel),
        stats=stats,
        m2l_count=visitor.m2l_count,
        p2p_pairs=visitor.p2p_pairs,
    )
