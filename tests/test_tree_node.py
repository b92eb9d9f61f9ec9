"""Tree topology queries and the SpatialNode view."""

import numpy as np
import pytest

from repro.particles import clustered_clumps, uniform_cube
from repro.trees import build_tree
from tests.harness.decompose_reference import reference_leaf_of_particle, reference_subtree_nodes


@pytest.fixture(scope="module")
def tree():
    return build_tree(uniform_cube(600, seed=0), tree_type="oct", bucket_size=8)


class TestTopology:
    def test_root_properties(self, tree):
        assert tree.root == 0
        assert tree.parent[0] == -1
        assert tree.node_particle_count(0) == 600

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

    def test_ancestors_end_at_root(self, tree):
        leaf = int(tree.leaf_indices[-1])
        anc = tree.ancestors(leaf)
        assert anc[-1] == 0
        assert len(anc) == tree.level[leaf]
        # ancestors are strictly decreasing in level
        levels = [tree.level[a] for a in anc]
        assert levels == sorted(levels, reverse=True)

    def test_subtree_nodes_partition(self, tree):
        """Children subtrees partition the parent subtree (minus itself)."""
        kids = tree.children(0)
        all_nodes = set(tree.subtree_nodes(0).tolist())
        union = {0}
        for c in kids:
            sub = set(tree.subtree_nodes(c).tolist())
            assert union.isdisjoint(sub - {0})
            union |= sub
        assert union == all_nodes

    def test_leaf_of_particle(self, tree):
        leaf_of = tree.leaf_of_particle()
        for leaf in tree.leaf_indices[:10]:
            s, e = tree.pstart[leaf], tree.pend[leaf]
            assert np.all(leaf_of[s:e] == leaf)

    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_range_queries_equal_the_stack_walks(self, tree_type):
        """``subtree_nodes`` and ``leaf_of_particle`` are range containment;
        the walks they replaced give the same arrays, in the same order —
        also down an octree's chains of single children (duplicates)."""
        p = clustered_clumps(900, seed=4)
        p.position[:40] = p.position[0]
        t = build_tree(p, tree_type=tree_type, bucket_size=4, max_depth=12)
        for i in range(t.n_nodes):
            nodes = t.subtree_nodes(i)
            assert nodes.dtype == np.int64
            assert np.array_equal(nodes, reference_subtree_nodes(t, i))
        assert np.array_equal(t.leaf_of_particle(), reference_leaf_of_particle(t))

    def test_preorder_visits_all_once(self, tree):
        seen = list(tree.iter_preorder())
        assert len(seen) == tree.n_nodes
        assert len(set(seen)) == tree.n_nodes
        assert seen[0] == 0
        # parent precedes child in preorder
        pos = {n: i for i, n in enumerate(seen)}
        for i in range(1, tree.n_nodes):
            assert pos[int(tree.parent[i])] < pos[i]


class TestSpatialNode:
    def test_views(self, tree):
        leaf = int(tree.leaf_indices[0])
        node = tree.node(leaf)
        assert node.is_leaf
        assert node.n_particles == tree.pend[leaf] - tree.pstart[leaf]
        assert node.positions.shape == (node.n_particles, 3)
        assert node.masses.shape == (node.n_particles,)
        assert node.box.contains(node.positions[0])
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
