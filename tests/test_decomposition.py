"""Decomposers, the Partitions-Subtrees model, and load balancing."""

import hashlib

import numpy as np
import pytest

from repro.decomp import (
    Decomposer,
    LongestDimDecomposer,
    OctDecomposer,
    SfcDecomposer,
    branch_duplication_count,
    decompose,
    get_decomposer,
    imbalance,
    register_decomposer,
    sfc_rebalance,
    spatial_bisection_rebalance,
)
from repro.decomp.loadbalance import apply_rebalance
from repro.exec.chunking import chunk_targets
from repro.particles import clustered_clumps, keplerian_disk, uniform_cube
from repro.trees import build_tree
from tests.harness.decompose_reference import (
    reference_decompose,
    reference_node_process,
    reference_partition_loads,
)

DECOMPOSERS = ["sfc", "oct", "longest"]


@pytest.fixture(scope="module")
def particles():
    return clustered_clumps(3000, seed=5)


class TestSplitters:
    @pytest.mark.parametrize("name", DECOMPOSERS)
    def test_assignment_is_complete(self, name, particles):
        parts = get_decomposer(name).assign(particles, 8)
        assert parts.shape == (len(particles),)
        assert parts.min() >= 0 and parts.max() <= 7
        assert len(np.unique(parts)) == 8  # every partition non-empty

    @pytest.mark.parametrize("name", DECOMPOSERS)
    def test_count_balance(self, name, particles):
        parts = get_decomposer(name).assign(particles, 8)
        counts = np.bincount(parts, minlength=8)
        # Octree decomposition can only hand out whole octree nodes, so its
        # balance on clustered data is legitimately looser (§II-C, Fig 13).
        limit = 2.2 if name == "oct" else 1.3
        assert imbalance(counts) < limit

    def test_sfc_balance_is_tight(self, particles):
        """SFC slices by count: near-perfect balance (paper §II-C)."""
        parts = SfcDecomposer().assign(particles, 16)
        counts = np.bincount(parts, minlength=16)
        assert counts.max() - counts.min() <= 1

    def test_sfc_slices_are_spatially_coherent(self):
        uniform = uniform_cube(4000, seed=11)
        parts = SfcDecomposer().assign(uniform, 8)
        # Curve locality: each of 8 slices covers far less volume than the
        # domain (a random assignment would cover ~all of it).
        dom = uniform.bounding_box().volume
        vols = [uniform.select(parts == p).bounding_box().volume for p in range(8)]
        assert np.mean(vols) < 0.45 * dom

    def test_oct_decomposition_on_disk_is_imbalanced(self):
        """The Fig 13 effect: octree decomposition balances a flat disk
        poorly compared to longest-dimension ORB."""
        disk = keplerian_disk(4000, seed=6)
        oct_parts = OctDecomposer(oversample=4).assign(disk, 12)
        orb_parts = LongestDimDecomposer().assign(disk, 12)
        oct_imb = imbalance(np.bincount(oct_parts, minlength=12))
        orb_imb = imbalance(np.bincount(orb_parts, minlength=12))
        assert orb_imb <= oct_imb

    def test_weighted_assignment(self, particles):
        """Weights shift the splitters: a heavy region gets fewer particles."""
        w = np.ones(len(particles))
        heavy = particles.position[:, 0] > 0
        w[heavy] = 10.0
        parts = SfcDecomposer().assign(particles, 4, weights=w)
        loads = np.zeros(4)
        np.add.at(loads, parts, w)
        assert imbalance(loads) < 1.5

    def test_single_partition(self, particles):
        parts = SfcDecomposer().assign(particles, 1)
        assert np.all(parts == 0)

    def test_invalid_n_parts(self, particles):
        with pytest.raises(ValueError):
            SfcDecomposer().assign(particles, 0)

    def test_custom_decomposer_registry(self, particles):
        class Stripes(Decomposer):
            name = "stripes"

            def assign(self, particles, n_parts, weights=None):
                x = particles.position[:, 0]
                ranks = np.argsort(np.argsort(x))
                return (ranks * n_parts) // len(x)

        register_decomposer("stripes", Stripes)
        parts = get_decomposer("stripes").assign(particles, 5)
        assert len(np.unique(parts)) == 5

    def test_unknown_decomposer(self):
        with pytest.raises(ValueError):
            get_decomposer("voronoi")

    @pytest.mark.parametrize("n_parts, unweighted, weighted", [
        (8, "13a1d024dd159fae", "13a1d024dd159fae"),
        (16, "253d3137f137091a", "34373a4d18c6a38e"),
    ])
    def test_oct_packing_is_the_shared_quantile_cut(self, n_parts, unweighted, weighted):
        """``OctDecomposer`` packs its leaves with the function the curve
        decomposers slice with; the digests are its output before it did."""
        p = clustered_clumps(20_000, seed=7)
        w = np.random.default_rng(n_parts).random(len(p)) ** 4
        for weights, digest in ((None, unweighted), (w, weighted)):
            ids = OctDecomposer().assign(p, n_parts, weights=weights)
            assert ids.dtype == np.int64
            assert hashlib.sha256(ids.tobytes()).hexdigest()[:16] == digest


class TestPartitionsSubtrees:
    @pytest.fixture(scope="class")
    def setup(self, particles):
        tree = build_tree(particles, tree_type="kd", bucket_size=16)
        # SFC partitioning of a kd-tree: the inconsistent pairing the model
        # was designed for.
        parts = SfcDecomposer().assign(tree.particles, 8)
        return tree, parts, decompose(tree, parts, n_subtrees=8)

    def test_partitions_cover_all_particles(self, setup):
        tree, parts, dec = setup
        total = sum(p.n_particles for p in dec.partitions)
        assert total == tree.n_particles
        seen = np.zeros(tree.n_particles, dtype=int)
        for p in dec.partitions:
            seen[p.particle_indices()] += 1
        assert np.all(seen == 1)

    def test_partition_owns_its_marked_particles(self, setup):
        tree, parts, dec = setup
        for p in dec.partitions:
            assert np.all(parts[p.particle_indices()] == p.index)

    def test_subtrees_tile_tree_order(self, setup):
        tree, _, dec = setup
        spans = sorted((st.pstart, st.pend) for st in dec.subtrees)
        assert spans[0][0] == 0
        assert spans[-1][1] == tree.n_particles
        for (s0, e0), (s1, e1) in zip(spans[:-1], spans[1:]):
            assert e0 == s1

    def test_node_subtree_assignment(self, setup):
        tree, _, dec = setup
        # every leaf belongs to exactly one subtree; shared branch is above
        leaves = tree.leaf_indices
        assert np.all(dec.node_subtree[leaves] >= 0)
        # subtree roots' ancestors are shared (-1)
        for st in dec.subtrees:
            for anc in tree.ancestors(st.root):
                assert dec.node_subtree[anc] == -1

    def test_split_buckets_flagged(self, setup):
        tree, parts, dec = setup
        # A leaf is split iff its particles span >1 partition.
        split_leaves = {
            int(leaf)
            for leaf in tree.leaf_indices
            if len(np.unique(parts[tree.pstart[leaf]:tree.pend[leaf]])) > 1
        }
        flagged = {
            b.leaf for p in dec.partitions for b in p.buckets if b.is_split
        }
        assert flagged == split_leaves
        assert dec.n_split_buckets == len(split_leaves)

    def test_split_fraction_shrinks_with_partition_size(self, particles):
        """Paper §II-C-1: 'because particles are generally assigned to
        Partitions spatially and there are many buckets to a Partition,
        only a few buckets will need to be split'.  The split fraction must
        drop as buckets-per-Partition grows (fewer, longer curve cuts)."""
        tree = build_tree(particles, tree_type="kd", bucket_size=16)

        def split_fraction(n_parts):
            parts = SfcDecomposer().assign(tree.particles, n_parts)
            dec = decompose(tree, parts, n_subtrees=4)
            return dec.n_split_buckets / tree.n_leaves

        assert split_fraction(2) < split_fraction(16)
        assert split_fraction(2) < 0.35

    def test_colocated_when_consistent(self, particles):
        """SFC decomposition of an octree in Morton order never splits
        buckets when splitters coincide with bucket boundaries — here we
        check the detection flag using one partition (trivially aligned)."""
        tree = build_tree(particles, tree_type="oct", bucket_size=16)
        parts = np.zeros(tree.n_particles, dtype=np.int64)
        dec = decompose(tree, parts, n_subtrees=4)
        assert dec.colocated
        assert dec.n_split_buckets == 0

    def test_partition_loads(self, setup):
        tree, parts, dec = setup
        loads = dec.partition_loads()
        assert loads.sum() == tree.n_particles
        custom = dec.partition_loads(np.full(tree.n_particles, 2.0))
        assert custom.sum() == pytest.approx(2.0 * tree.n_particles)

    def test_node_process_map(self, setup):
        tree, _, dec = setup
        proc = dec.node_process()
        for st in dec.subtrees:
            assert proc[st.root] == st.process
        assert proc[0] == -1  # root is shared

    def test_length_mismatch_raises(self, setup):
        tree, _, _ = setup
        with pytest.raises(ValueError):
            decompose(tree, np.zeros(3, dtype=np.int64), n_subtrees=2)

    def test_negative_partition_id_rejected(self, setup):
        """A -1 used to file its particles under the *last* partition."""
        tree, parts, _ = setup
        bad = parts.copy()
        bad[5] = -1
        with pytest.raises(ValueError, match="non-negative integer"):
            decompose(tree, bad, n_subtrees=2)

    def test_fractional_partition_id_rejected(self, setup):
        """A 0.7 used to be truncated to partition 0."""
        tree, parts, _ = setup
        with pytest.raises(ValueError, match="non-negative integer"):
            decompose(tree, parts + 0.7, n_subtrees=2)

    def test_buckets_are_a_view_of_the_arrays(self, setup):
        tree, parts, dec = setup
        for p in dec.partitions:
            buckets = p.buckets
            assert [b.leaf for b in buckets] == p.bucket_leaf.tolist()
            assert [b.is_split for b in buckets] == p.bucket_split.tolist()
            assert sum(len(b.particle_idx) for b in buckets) == p.n_particles
            assert np.array_equal(np.concatenate([b.particle_idx for b in buckets]),
                                  p.particle_indices())


def assert_equals_reference(tree, ids, n_subtrees, n_processes=None):
    """The array-pass ``decompose`` against the per-leaf loop it replaced."""
    new = decompose(tree, ids, n_subtrees, n_processes)
    ref = reference_decompose(tree, ids, n_subtrees, n_processes)
    for name in ("n_processes", "n_split_buckets", "n_shared_particles", "colocated"):
        assert getattr(new, name) == getattr(ref, name), name
        assert type(getattr(new, name)) is type(getattr(ref, name)), name
    assert new.subtrees == ref.subtrees
    for name in ("particle_partition", "node_subtree"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(new.partitions) == len(ref.partitions)
    for p, q in zip(new.partitions, ref.partitions):
        assert (p.index, p.process, p.n_particles) == (q.index, q.process, q.n_particles)
        assert np.array_equal(p.leaf_ids, q.leaf_ids) and p.leaf_ids.dtype == q.leaf_ids.dtype
        assert np.array_equal(p.particle_indices(), q.particle_indices())
        assert p.particle_indices().dtype == q.particle_indices().dtype
        assert len(p.buckets) == len(q.buckets)
        for a, b in zip(p.buckets, q.buckets):
            assert (a.leaf, a.is_split) == (b.leaf, b.is_split)
            assert np.array_equal(a.particle_idx, b.particle_idx)
    assert np.array_equal(new.leaf_partition(), ref.leaf_partition())
    assert np.array_equal(new.node_process(), reference_node_process(ref))
    load = np.random.default_rng(3).random(tree.n_particles)
    for weights in (load, np.ones(tree.n_particles)):
        assert new.partition_loads(weights).tobytes() == \
            reference_partition_loads(ref, weights).tobytes()
    chunks = [chunk_targets(tree, tree.leaf_indices, d) for d in (new, ref)]
    assert len(chunks[0]) == len(chunks[1])
    assert all(np.array_equal(a, b) for a, b in zip(*chunks))
    return new


class TestDecomposeEqualsReference:
    @pytest.fixture(scope="class", params=["oct", "kd", "longest"])
    def tree(self, request):
        return build_tree(clustered_clumps(700, seed=5), tree_type=request.param, bucket_size=8)

    @pytest.mark.parametrize("name", ["sfc", "hilbert", "oct", "longest"])
    def test_matrix(self, tree, name):
        for n_parts in (1, 2, 8, 16, tree.n_leaves + 5):
            ids = get_decomposer(name).assign(tree.particles, n_parts)
            for n_subtrees in (1, 8, tree.n_leaves + 3):
                assert_equals_reference(tree, ids, n_subtrees)
            assert_equals_reference(tree, ids, 8, n_processes=3)

    def test_every_leaf_split(self, tree):
        """Adversarial assignment: random ids, and the first two particles of
        every leaf that has two forced apart."""
        ids = np.random.default_rng(8).integers(0, 6, tree.n_particles)
        big = tree.leaf_indices[tree.node_particle_count(tree.leaf_indices) > 1]
        ids[tree.pstart[big] + 1] = (ids[tree.pstart[big]] + 1) % 6
        dec = assert_equals_reference(tree, ids, 8, n_processes=4)
        assert dec.n_split_buckets == len(big) > 0.5 * tree.n_leaves
        assert not dec.colocated

    def test_single_child_chains(self):
        """Duplicates make an octree a chain of equal-range nodes: the chain
        above a Subtree root is shared branch, the chain below is its own."""
        p = uniform_cube(40, seed=2)
        p.position[:30] = p.position[0]
        tree = build_tree(p, tree_type="oct", bucket_size=4, max_depth=8)
        assert tree.n_children.max() > 1 and (tree.n_children == 1).any()
        ids = SfcDecomposer().assign(tree.particles, 3)
        for n_subtrees in (1, 2, 4, 50):
            assert_equals_reference(tree, ids, n_subtrees)


class TestBranchDuplication:
    def test_zero_for_single_partition(self, particles):
        tree = build_tree(particles, tree_type="oct", bucket_size=16)
        assert branch_duplication_count(tree, np.zeros(tree.n_particles, int)) == 0

    def test_counts_spanning_nodes_exactly(self):
        p = uniform_cube(200, seed=1)
        tree = build_tree(p, tree_type="kd", bucket_size=8)
        parts = SfcDecomposer().assign(tree.particles, 4)
        count = branch_duplication_count(tree, parts)
        expected = sum(
            1
            for i in range(tree.n_nodes)
            if len(np.unique(parts[tree.pstart[i]:tree.pend[i]])) > 1
        )
        assert count == expected
        assert count >= 2  # at least the root and something below

    def test_grows_with_partitions(self, particles):
        """Finer SFC decomposition duplicates more branch nodes — the strong
        scaling pain §II-C describes."""
        tree = build_tree(particles, tree_type="oct", bucket_size=16)
        dup = [
            branch_duplication_count(
                tree, SfcDecomposer().assign(tree.particles, n)
            )
            for n in (2, 8, 32)
        ]
        assert dup[0] < dup[1] < dup[2]


class TestLoadBalance:
    def test_imbalance_metric(self):
        assert imbalance(np.array([1.0, 1.0])) == 1.0
        assert imbalance(np.array([3.0, 1.0])) == 1.5
        assert imbalance(np.array([])) == 1.0
        assert imbalance(np.zeros(3)) == 1.0

    def test_sfc_rebalance_equalises_weighted_load(self, particles):
        rng = np.random.default_rng(0)
        load = rng.exponential(1.0, len(particles))
        parts = sfc_rebalance(particles, load, 8)
        sums = np.zeros(8)
        np.add.at(sums, parts, load)
        assert imbalance(sums) < 1.2

    def test_spatial_bisection_equalises_weighted_load(self, particles):
        rng = np.random.default_rng(1)
        load = rng.exponential(1.0, len(particles))
        parts = spatial_bisection_rebalance(particles, load, 8)
        sums = np.zeros(8)
        np.add.at(sums, parts, load)
        assert imbalance(sums) < 1.2

    def test_zero_load_falls_back_to_counts(self, particles):
        parts = sfc_rebalance(particles, np.zeros(len(particles)), 4)
        counts = np.bincount(parts, minlength=4)
        assert imbalance(counts) < 1.05

    def test_negative_load_rejected(self, particles):
        with pytest.raises(ValueError):
            sfc_rebalance(particles, -np.ones(len(particles)), 4)

    def test_apply_rebalance_keeps_subtrees(self, particles):
        tree = build_tree(particles, tree_type="oct", bucket_size=16)
        parts = SfcDecomposer().assign(tree.particles, 8)
        dec = decompose(tree, parts, n_subtrees=8)
        new_parts = sfc_rebalance(tree.particles, np.ones(tree.n_particles), 8)
        dec2 = apply_rebalance(dec, new_parts)
        # memory view unchanged: same subtree roots
        assert [st.root for st in dec2.subtrees] == [st.root for st in dec.subtrees]
        assert dec2.tree is tree
