"""Tree builders: invariants, geometry, and type-specific properties."""

import numpy as np
import pytest

from repro.particles import ParticleSet, clustered_clumps, keplerian_disk, uniform_cube
from repro.trees import (
    TreeBuildConfig,
    TreeType,
    build_tree,
    check_tree_invariants,
)

ALL_TYPES = ["oct", "kd", "longest"]
GENERATORS = {
    "uniform": lambda: uniform_cube(1500, seed=1),
    "clustered": lambda: clustered_clumps(1500, seed=2),
    "disk": lambda: keplerian_disk(1500, seed=3),
}


@pytest.mark.parametrize("tree_type", ALL_TYPES)
@pytest.mark.parametrize("dist", list(GENERATORS))
def test_invariants_all_types_all_distributions(tree_type, dist):
    particles = GENERATORS[dist]()
    tree = build_tree(particles, tree_type=tree_type, bucket_size=14)
    check_tree_invariants(tree)


@pytest.mark.parametrize("tree_type", ALL_TYPES)
def test_bucket_size_respected(tree_type):
    particles = uniform_cube(800, seed=5)
    tree = build_tree(particles, tree_type=tree_type, bucket_size=8)
    counts = tree.pend[tree.leaf_indices] - tree.pstart[tree.leaf_indices]
    assert counts.max() <= 8
    assert counts.min() >= 1


@pytest.mark.parametrize("tree_type", ALL_TYPES)
def test_particles_preserved(tree_type):
    particles = uniform_cube(300, seed=6)
    tree = build_tree(particles, tree_type=tree_type, bucket_size=4)
    # The tree's particle set is a permutation of the input.
    orig_sorted = np.sort(particles.position[:, 0])
    tree_sorted = np.sort(tree.particles.position[:, 0])
    assert np.array_equal(orig_sorted, tree_sorted)
    assert np.array_equal(np.sort(tree.particles.orig_index), np.arange(300))


class TestOctreeSpecifics:
    def test_branch_factor_at_most_8(self):
        tree = build_tree(uniform_cube(2000, seed=0), tree_type="oct", bucket_size=8)
        assert tree.n_children.max() <= 8

    def test_empty_children_skipped(self):
        """All children hold at least one particle (no empty octants)."""
        tree = build_tree(clustered_clumps(1000, seed=1), tree_type="oct", bucket_size=8)
        internal = tree.first_child != -1
        for i in np.flatnonzero(internal):
            for c in tree.children(i):
                assert tree.pend[c] > tree.pstart[c]

    def test_root_box_is_cube(self):
        tree = build_tree(keplerian_disk(500, seed=2), tree_type="oct", bucket_size=8)
        size = tree.box_hi[0] - tree.box_lo[0]
        assert np.allclose(size, size[0])

    def test_children_boxes_are_octants(self):
        tree = build_tree(uniform_cube(500, seed=3), tree_type="oct", bucket_size=8)
        i = 0
        center = 0.5 * (tree.box_lo[i] + tree.box_hi[i])
        for c in tree.children(i):
            lo, hi = tree.box_lo[c], tree.box_hi[c]
            # each face is either the parent's or the center plane
            for d in range(3):
                assert lo[d] in (tree.box_lo[i][d], center[d])
                assert hi[d] in (tree.box_hi[i][d], center[d])

    def test_keys_are_prefix_codes(self):
        """A child's key is parent_key * 8 + octant."""
        tree = build_tree(uniform_cube(500, seed=4), tree_type="oct", bucket_size=8)
        for i in range(tree.n_nodes):
            for c in tree.children(i):
                assert int(tree.key[c]) >> 3 == int(tree.key[i])

    def test_identical_points_hit_depth_cap(self):
        """Duplicated positions cannot be separated; the depth cap stops
        recursion instead of looping forever."""
        pos = np.zeros((40, 3))
        tree = build_tree(ParticleSet(pos), tree_type="oct", bucket_size=4)
        # All particles share one Morton key: recursion descends a chain of
        # single-child nodes until the key-resolution cap, then gives up and
        # leaves one (oversized) bucket.
        assert tree.n_leaves == 1
        assert tree.depth == 21
        leaf = int(tree.leaf_indices[0])
        assert tree.pend[leaf] - tree.pstart[leaf] == 40


class TestBinarySpecifics:
    def test_kd_is_balanced(self):
        tree = build_tree(clustered_clumps(1024, seed=5), tree_type="kd", bucket_size=8)
        counts = tree.pend[tree.leaf_indices] - tree.pstart[tree.leaf_indices]
        # median splits: leaf populations differ by at most a factor ~2
        assert counts.max() <= 2 * max(counts.min(), 4)

    def test_kd_cycles_axes(self):
        tree = build_tree(uniform_cube(512, seed=6), tree_type="kd", bucket_size=4)
        # level-0 split is along x: children boxes differ in x extent only
        left, right = tree.children(0)
        assert tree.box_hi[left][0] <= tree.box_lo[right][0] + 1e-12
        assert np.allclose(tree.box_lo[left][1:], tree.box_lo[right][1:])

    def test_longest_dim_splits_longest(self):
        """On a flat disk, the longest-dimension tree never splits z while
        x/y extents dominate (the paper's §IV-B argument)."""
        disk = keplerian_disk(2000, seed=7)
        tree = build_tree(disk, tree_type="longest", bucket_size=16)
        for i in range(tree.n_nodes):
            kids = tree.children(i)
            if len(kids) != 2:
                continue
            sizes = tree.box_hi[i] - tree.box_lo[i]
            left = kids[0]
            # the split axis is where the child's hi differs from parent's
            split_axis = int(np.argmax(np.abs(tree.box_hi[left] - tree.box_hi[i])))
            assert split_axis == int(np.argmax(sizes))

    def test_median_split_counts(self):
        tree = build_tree(uniform_cube(1000, seed=8), tree_type="longest", bucket_size=8)
        for i in range(tree.n_nodes):
            kids = tree.children(i)
            if len(kids) == 2:
                n_left = tree.pend[kids[0]] - tree.pstart[kids[0]]
                n_right = tree.pend[kids[1]] - tree.pstart[kids[1]]
                assert abs(n_left - n_right) <= 1


class TestConfigAndRegistry:
    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            TreeBuildConfig(bucket_size=0)

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            TreeBuildConfig(tree_type="triangular")

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            build_tree(uniform_cube(10, seed=0), TreeBuildConfig(), bucket_size=4)

    def test_zero_particles_rejected(self):
        with pytest.raises(ValueError):
            build_tree(ParticleSet(np.empty((0, 3))))


class TestInvariantCheckerHasTeeth:
    """``check_tree_invariants`` evaluates whole arrays; a tree corrupted in
    each invariant its docstring lists must still be rejected."""

    @pytest.fixture(params=ALL_TYPES)
    def tree(self, request):
        tree = build_tree(clustered_clumps(700, seed=3), tree_type=request.param, bucket_size=6)
        check_tree_invariants(tree)
        return tree

    @staticmethod
    def node_with_children(tree, at_least=2):
        return int(np.flatnonzero(tree.n_children >= at_least)[-1])

    def test_1_root_range(self, tree):
        tree.pend[0] -= 1
        with pytest.raises(AssertionError, match="root must span"):
            check_tree_invariants(tree)

    def test_2_gap_between_siblings(self, tree):
        first = tree.first_child[self.node_with_children(tree)]
        tree.pend[first] += 1
        with pytest.raises(AssertionError, match=f"child {first + 1} range starts at"):
            check_tree_invariants(tree)

    def test_2_children_stop_short(self, tree):
        node = self.node_with_children(tree)
        tree.pend[tree.first_child[node] + tree.n_children[node] - 1] += 1
        with pytest.raises(AssertionError, match=f"children of {node} cover"):
            check_tree_invariants(tree)

    def test_3_parent_pointer(self, tree):
        child = tree.first_child[self.node_with_children(tree)]
        tree.parent[child] = 0 if tree.parent[child] != 0 else 1
        with pytest.raises(AssertionError, match=f"child {child} does not point back"):
            check_tree_invariants(tree)

    def test_3_level(self, tree):
        tree.level[tree.first_child[self.node_with_children(tree)]] += 1
        with pytest.raises(AssertionError):
            check_tree_invariants(tree)

    def test_3_internal_node_without_children(self, tree):
        node = self.node_with_children(tree)
        tree.n_children[node] = 0
        with pytest.raises(AssertionError, match=f"internal node {node} has no children"):
            check_tree_invariants(tree)

    def test_4_empty_leaf(self, tree):
        """Hand a leaf's particles to its right sibling: ranges still chain."""
        leaves = tree.leaf_indices
        pair = np.flatnonzero((leaves[1:] == leaves[:-1] + 1)
                              & (tree.parent[leaves[1:]] == tree.parent[leaves[:-1]]))
        leaf = int(leaves[pair[0]])
        tree.pend[leaf] = tree.pstart[leaf + 1] = tree.pstart[leaf]
        with pytest.raises(AssertionError, match=f"leaf {leaf} is empty"):
            check_tree_invariants(tree)

    def test_4_leaf_with_a_child_count(self, tree):
        tree.n_children[tree.leaf_indices[3]] = 2
        with pytest.raises(AssertionError):
            check_tree_invariants(tree)

    def test_5_particle_outside_its_box(self, tree):
        leaf = int(tree.leaf_indices[3])
        tree.particles.position[tree.pstart[leaf], 1] = tree.box_hi[leaf, 1] + 1e-3
        with pytest.raises(AssertionError, match="has particles outside its box"):
            check_tree_invariants(tree)
        check_tree_invariants(tree, check_boxes=False)

    def test_6_duplicate_key(self, tree):
        tree.key[2] = tree.key[1]
        with pytest.raises(AssertionError, match="node keys must be unique"):
            check_tree_invariants(tree)

    def test_orphan_leaf_breaks_the_tiling(self, tree):
        """A leaf no parent lists passes every per-node check."""
        node = self.node_with_children(tree)
        tree.n_children[node] -= 1
        last = tree.first_child[node] + tree.n_children[node]
        tree.pend[last - 1] = tree.pend[last]
        tree._leaf_indices = None
        with pytest.raises(AssertionError, match="leaf ranges must tile"):
            check_tree_invariants(tree, check_boxes=False)


def test_tree_enum_str():
    assert str(TreeType.OCT) == "oct"
    assert TreeType("longest") == TreeType.LONGEST_DIM
