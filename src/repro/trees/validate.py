"""Structural invariant checks for trees (used by tests and debug builds)."""

from __future__ import annotations

import numpy as np

from .linear import tight_bounds
from .node import NO_NODE, Tree

__all__ = ["check_tree_invariants"]


def check_tree_invariants(tree: Tree, check_boxes: bool = True) -> None:
    """Raise AssertionError if any tree invariant is violated.

    Checked invariants:

    1. the root covers the full particle range ``[0, N)``;
    2. every internal node's children partition its particle range exactly
       (contiguous, ordered, no gaps or overlaps);
    3. children are contiguous in the node arrays and point back at their
       parent; levels increase by one;
    4. every leaf holds at least one and at most ``bucket_size`` particles
       (unless the depth cap forced a bigger bucket);
    5. every particle lies inside its node's box (optionally skipped for
       tight-box trees where it holds by construction);
    6. node keys are unique.
    """
    from ..core.util import ranges_to_indices  # repro.core imports repro.trees

    n = tree.n_particles
    assert tree.n_nodes >= 1, "tree must have at least a root"
    assert tree.pstart[0] == 0 and tree.pend[0] == n, "root must span all particles"
    assert tree.parent[0] == NO_NODE and tree.level[0] == 0

    assert len(np.unique(tree.key)) == tree.n_nodes, "node keys must be unique"

    def first(bad: np.ndarray) -> int:
        """The lowest index where ``bad`` holds (only read when one does)."""
        return int(np.argmax(bad))

    is_leaf = tree.first_child == NO_NODE
    leaves = np.flatnonzero(is_leaf)
    assert not np.any(tree.n_children[leaves] != 0)
    empty = tree.pend[leaves] - tree.pstart[leaves] < 1
    assert not empty.any(), f"leaf {leaves[first(empty)]} is empty"

    node = np.flatnonzero(~is_leaf)
    fc, nc = tree.first_child[node], tree.n_children[node]
    childless = nc < 1
    assert not childless.any(), f"internal node {node[first(childless)]} has no children"
    child = ranges_to_indices(fc, fc + nc)
    owner = np.repeat(node, nc)  # the node each child is listed under
    stray = tree.parent[child] != owner
    assert not stray.any(), (
        f"child {child[first(stray)]} does not point back to {owner[first(stray)]}"
    )
    assert not np.any(tree.level[child] != tree.level[owner] + 1)
    # A child starts where its left sibling ends, the first where its parent does.
    cursor = np.empty(len(child), dtype=np.int64)
    cursor[1:] = tree.pend[child[:-1]]
    cursor[np.cumsum(nc) - nc] = tree.pstart[node]
    gap = tree.pstart[child] != cursor
    assert not gap.any(), (
        f"child {child[first(gap)]} range starts at {tree.pstart[child[first(gap)]]}, "
        f"expected {cursor[first(gap)]}"
    )
    covered = tree.pend[child[np.cumsum(nc) - 1]]
    short = covered != tree.pend[node]
    assert not short.any(), (
        f"children of {node[first(short)]} cover "
        f"[{tree.pstart[node[first(short)]]}, {covered[first(short)]}), "
        f"expected end {tree.pend[node[first(short)]]}"
    )

    # Leaf ranges partition [0, N).
    order = np.argsort(tree.pstart[leaves])
    leaves = leaves[order]
    assert tree.pstart[leaves[0]] == 0
    assert tree.pend[leaves[-1]] == n
    assert bool(np.all(tree.pend[leaves[:-1]] == tree.pstart[leaves[1:]])), (
        "leaf ranges must tile the particle array"
    )

    if check_boxes:
        # A tiny tolerance absorbs the float arithmetic in split planes.  It
        # must scale with the coordinate magnitude: Morton binning quantises
        # positions on an integer grid while child boxes come from float
        # halving, and the two disagree by up to a few ulps of the universe
        # extent (catastrophic cancellation near split planes).
        scale = float(max(np.abs(tree.box_lo[0]).max(), np.abs(tree.box_hi[0]).max(), 1.0))
        tol = 1e-12 + 8.0 * np.finfo(np.float64).eps * scale
        # Every particle of a node is inside its box iff the tight bounds of
        # its particles are (the checks above make the ranges nest).
        lo, hi = tight_bounds(tree)
        outside = ~np.all((lo >= tree.box_lo - tol) & (hi <= tree.box_hi + tol), axis=1)
        assert not outside.any(), f"node {first(outside)} has particles outside its box"
