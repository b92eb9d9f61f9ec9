"""Tree topology queries and the SpatialNode view."""

import numpy as np
import pytest

from repro.particles import clustered_clumps, uniform_cube
from repro.trees import build_tree
from tests.harness.decompose_reference import reference_leaf_of_particle


@pytest.fixture(scope="module")
def tree():
    return build_tree(uniform_cube(600, seed=0), tree_type="oct", bucket_size=8)


class TestTopology:
    def test_root_properties(self, tree):
        assert tree.root == 0
        assert tree.parent[0] == -1
        assert tree.pend[0] - tree.pstart[0] == 600

    def test_leaf_indices_consistent(self, tree):
        leaves = tree.leaf_indices
        assert np.all(tree.first_child[leaves] == -1)
        assert tree.n_leaves == len(leaves)
        internal = np.setdiff1d(np.arange(tree.n_nodes), leaves)
        assert np.all(tree.first_child[internal] != -1)

    def test_children_parent_roundtrip(self, tree):
        for i in range(0, tree.n_nodes, 7):
            for c in tree.children(i):
                assert tree.parent[c] == i

    def test_leaf_of_particle(self, tree):
        leaf_of = tree.leaf_of_particle()
        for leaf in tree.leaf_indices[:10]:
            s, e = tree.pstart[leaf], tree.pend[leaf]
            assert np.all(leaf_of[s:e] == leaf)

    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_range_queries_equal_the_stack_walks(self, tree_type):
        """``leaf_of_particle`` is range containment; the walk it replaced
        gives the same array — also down an octree's chains of single
        children (duplicates)."""
        p = clustered_clumps(900, seed=4)
        p.position[:40] = p.position[0]
        t = build_tree(p, tree_type=tree_type, bucket_size=4, max_depth=12)
        assert np.array_equal(t.leaf_of_particle(), reference_leaf_of_particle(t))


class TestSpatialNode:
    def test_views(self, tree):
        leaf = int(tree.leaf_indices[0])
        node = tree.node(leaf)
        assert node.is_leaf
        assert node.n_particles == tree.pend[leaf] - tree.pstart[leaf]
        assert node.positions.shape == (node.n_particles, 3)
        assert node.masses.shape == (node.n_particles,)
        assert node.box.distance_sq(node.positions[0]) == 0.0
        assert node.field("mass").shape == (node.n_particles,)

    def test_parent_child_navigation(self, tree):
        root = tree.node(0)
        assert root.parent() is None
        kids = root.children()
        assert kids and all(k.parent().index == 0 for k in kids)
        assert all(k.level == 1 for k in kids)

    def test_data_access_requires_accumulation(self, tree):
        node = tree.node(0)
        tree.data = None
        with pytest.raises(RuntimeError):
            _ = node.data
