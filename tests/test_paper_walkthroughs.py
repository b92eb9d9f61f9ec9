"""Executable walkthroughs of the paper's conceptual figures.

* Fig 1 — the 5-particle k-d tree of bucket size 2: spatial extents, Data
  accumulation leaves→root, and a traversal pruned by ``open()``.
* Fig 2 — the six-step cache-fill protocol (exercised via SharedTreeCache).
* Figs 4-5 — the Partitions-Subtrees decomposition with a bucket split at a
  partition border.
* Figs 6-8 — the gravity user-code shape: CentroidData + GravityVisitor +
  a Driver with configure()/traversal()/postTraversal().
"""

import numpy as np
import pytest

from repro.apps.gravity import CentroidData, GravityDriver
from repro.core import Visitor, accumulate_data, get_traverser
from repro.particles import ParticleSet, uniform_cube
from repro.trees import TreeType, build_tree

from tests.harness.decompose_reference import reference_subtree_nodes


class TestFig1KdTreeWalkthrough:
    """A universe of 5 particles, k-d tree, bucket size 2 (paper Fig 1)."""

    @pytest.fixture()
    def tree(self):
        pos = np.array(
            [
                [0.1, 0.1, 0.0],
                [0.2, 0.8, 0.0],
                [0.5, 0.5, 0.0],
                [0.8, 0.2, 0.0],
                [0.9, 0.9, 0.0],
            ]
        )
        p = ParticleSet(pos, mass=np.arange(1.0, 6.0))
        return build_tree(p, tree_type="kd", bucket_size=2)

    def test_leaf_structure(self, tree):
        # 5 particles at bucket 2: leaves of size <= 2 covering everything
        counts = tree.pend[tree.leaf_indices] - tree.pstart[tree.leaf_indices]
        assert counts.sum() == 5
        assert counts.max() <= 2

    def test_leaves_have_disjoint_extents(self, tree):
        leaves = tree.leaf_indices
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                a, b = int(leaves[i]), int(leaves[j])
                # interiors are disjoint: overlap has zero volume in the
                # split dimensions
                lo = np.maximum(tree.box_lo[a], tree.box_lo[b])
                hi = np.minimum(tree.box_hi[a], tree.box_hi[b])
                overlap = np.maximum(hi - lo, 0)
                assert np.prod(overlap[:2]) == pytest.approx(0.0)

    def test_data_accumulates_to_root(self, tree):
        """Fig 1 centre: user Data flows leaves -> parents -> root."""
        data = accumulate_data(tree, CentroidData)
        assert data[0].sum_mass == pytest.approx(15.0)  # 1+2+3+4+5

    def test_traversal_prunes_on_open(self, tree):
        """Fig 1 right: a traversal that refuses to open one child of the
        root consumes that child's summary via node()."""
        root_children = [int(c) for c in tree.children(0)]
        pruned_child = root_children[1]

        class PruneSecondChild(Visitor):
            def __init__(self):
                self.node_calls = []
                self.leaf_calls = []

            def open(self, source, target):
                return source.index != pruned_child

            def node(self, source, target):
                self.node_calls.append(source.index)

            def leaf(self, source, target):
                self.leaf_calls.append(source.index)

        visitor = PruneSecondChild()
        one_target = tree.leaf_indices[:1]
        get_traverser("per-bucket").traverse(tree, visitor, one_target)
        assert visitor.node_calls == [pruned_child]
        # every leaf reached lives under the non-pruned child
        under_pruned = set(reference_subtree_nodes(tree, pruned_child).tolist())
        assert all(l not in under_pruned for l in visitor.leaf_calls)


class TestFig2CacheProtocol:
    """The enumerated steps of the shared-memory cache fill."""

    def test_six_steps(self):
        from repro.cache import SharedTreeCache
        from repro.decomp import SfcDecomposer, decompose

        p = uniform_cube(800, seed=31)
        tree = build_tree(p, tree_type="oct", bucket_size=16)
        parts = SfcDecomposer().assign(tree.particles, 2)
        dec = decompose(tree, parts, n_subtrees=2)
        cache = SharedTreeCache(
            tree, dec.node_process(), process=0, nodes_per_request=2,
            shared_branch_levels=1,
        )
        # find a placeholder (remote node, "node 5" in the figure)
        stack = [(None, None, cache.root)]
        target = None
        while stack:
            parent, slot, e = stack.pop()
            if e.is_placeholder:
                target = (parent, slot)
                break
            stack.extend((e, i, c) for i, c in enumerate(e.children))
        assert target is not None
        parent, slot = target
        placeholder = parent.children[slot]
        resumed = []
        # Step 0: first toucher claims the atomic request flag...
        issued = cache.request_fill(parent, slot, on_resume=lambda: resumed.append(1))
        assert issued
        # Steps 1-4 happened synchronously: the placeholder was swapped for
        # a wired subtree...
        filled = parent.children[slot]
        assert filled is not placeholder
        assert not filled.is_placeholder
        assert filled.key == placeholder.key
        # ...with deeper placeholders beyond the shipped horizon,
        cache.validate()
        # and Step 5 resumed the parked traversal.
        assert resumed == [1]


class TestFig4And5PartitionsSubtrees:
    def test_border_bucket_split(self):
        """Fig 5: a bucket whose particles span two Partitions is split into
        local buckets, one per side."""
        from repro.decomp import decompose

        # 1-D line of 12 particles; the kd build (median splits, bucket 4)
        # makes four 3-particle leaves: [0,3) [3,6) [6,9) [9,12).  A
        # partition boundary at particle 5 cuts the second leaf mid-bucket.
        pos = np.zeros((12, 3))
        pos[:, 0] = np.arange(12) / 12.0
        tree = build_tree(ParticleSet(pos), tree_type="kd", bucket_size=4)
        parts = (np.arange(12) >= 5).astype(np.int64)
        # tree order may permute; map through orig_index
        parts = parts[tree.particles.orig_index]
        dec = decompose(tree, parts, n_subtrees=2)
        assert dec.n_split_buckets == 1
        split_buckets = [
            b for p in dec.partitions for b in p.buckets if b.is_split
        ]
        assert len(split_buckets) == 2  # one local bucket per side
        assert split_buckets[0].leaf == split_buckets[1].leaf
        total = sum(len(b.particle_idx) for b in split_buckets)
        leaf = split_buckets[0].leaf
        assert total == tree.pend[leaf] - tree.pstart[leaf]

    def test_leaf_sharing_volume_is_small(self):
        """Paper §II-C-1: leaf sharing costs 0.1-0.4% of iteration time
        because only split-bucket particles move; check the communicated
        fraction is a few percent of N at realistic granularity."""
        from repro.decomp import SfcDecomposer, decompose

        p = uniform_cube(4000, seed=32)
        tree = build_tree(p, tree_type="oct", bucket_size=16)
        parts = SfcDecomposer().assign(tree.particles, 4)
        dec = decompose(tree, parts, n_subtrees=4)
        assert dec.n_shared_particles <= 0.05 * tree.n_particles


class TestFig6To8UserCodeShape:
    def test_centroid_data_matches_fig6(self):
        """CentroidData exposes exactly the Fig 6 interface: empty ctor,
        bucket ctor, +=, centroid()."""
        d = CentroidData.empty()
        assert d.sum_mass == 0.0
        pos = np.array([[1.0, 0, 0], [3.0, 0, 0]])
        p = ParticleSet(pos, mass=np.array([1.0, 1.0]))
        tree = build_tree(p, tree_type="kd", bucket_size=2)
        leaf_data = CentroidData.from_leaf(tree.node(int(tree.leaf_indices[0])))
        d += leaf_data
        assert np.allclose(d.centroid(), [2.0, 0, 0])

    def test_driver_matches_fig8(self):
        """A GravityMain in the shape of Fig 8: configure() sets tree and
        decomposition types; traversal() starts the visitor; the run
        produces accelerations."""

        class GravityMain(GravityDriver):
            def configure(self, conf):
                conf.num_iterations = 1
                conf.tree_type = TreeType.OCT
                conf.decomp_type = "sfc"
                conf.num_partitions = 4
                conf.num_subtrees = 4

            def create_particles(self, config):
                return uniform_cube(400, seed=33)

            def post_traversal(self, iteration):
                self.output = self.accelerations.copy()

        main = GravityMain()
        main.run()
        assert main.config.tree_type == TreeType.OCT
        assert main.output.shape == (400, 3)
        assert np.any(main.output != 0)
