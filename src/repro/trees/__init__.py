"""Spatial tree structures and builders.

Trees are stored as structures-of-arrays (:class:`Tree`): node topology,
boxes, levels and particle ranges live in flat NumPy arrays so traversals can
evaluate opening criteria over batches of nodes at once.  Builders permute
the particle set into *tree order* (particles of any node are contiguous),
which is what makes leaf buckets pure array slices.

Built-in tree types (selected via :class:`TreeType`):

* ``oct``     — octree over the cubified universe box (branch factor 8),
* ``kd``      — k-d tree cycling the split axis, median particle splits,
* ``longest`` — longest-dimension binary tree (paper §IV-B): always split
  the longest axis of the node's box at the median particle.
"""

from .node import SpatialNode, Tree
from .build import TreeBuildConfig, TreeType, build_tree
from .build_binary import build_kd_tree, build_longest_dim_tree
from .linear import build_octree_linear
from .validate import check_tree_invariants

__all__ = [
    "SpatialNode",
    "Tree",
    "TreeBuildConfig",
    "TreeType",
    "build_tree",
    "build_octree_linear",
    "build_kd_tree",
    "build_longest_dim_tree",
    "check_tree_invariants",
]
