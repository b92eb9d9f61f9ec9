"""kNN and ball-search correctness against brute force."""

import numpy as np
import pytest

from repro.apps.knn import (
    BallSearchVisitor,
    KNNVisitor,
    ball_search,
    brute_force_knn,
    knn_search,
)
from repro.core import get_traverser
from repro.particles import ParticleSet, clustered_clumps, uniform_cube
from repro.trees import build_tree
from tests.harness.ball_reference import brute_force_ball


@pytest.fixture(scope="module", params=["oct", "kd"])
def tree(request):
    return build_tree(clustered_clumps(900, seed=8), tree_type=request.param, bucket_size=10)


class TestKNN:
    def test_matches_brute_force_distances(self, tree):
        res = knn_search(tree, k=6)
        bf_d, _ = brute_force_knn(tree.particles.position, 6)
        assert np.allclose(res.dist_sq, bf_d)

    def test_indices_valid_under_ties(self, tree):
        """Indices must reproduce their own distances."""
        res = knn_search(tree, k=6)
        pos = tree.particles.position
        for i in range(0, tree.n_particles, 97):
            d = np.linalg.norm(pos[res.index[i]] - pos[i], axis=1) ** 2
            assert np.allclose(np.sort(d), res.dist_sq[i])

    def test_rows_sorted(self, tree):
        res = knn_search(tree, k=5)
        assert np.all(np.diff(res.dist_sq, axis=1) >= 0)

    def test_excludes_self(self, tree):
        res = knn_search(tree, k=4)
        rows = np.arange(tree.n_particles)[:, None]
        assert not np.any(res.index == rows)

    def test_k_bounds(self, tree):
        with pytest.raises(ValueError):
            KNNVisitor(tree, 0)
        with pytest.raises(ValueError):
            KNNVisitor(tree, tree.n_particles)

    def test_k1_is_nearest_neighbor(self, tree):
        res = knn_search(tree, k=1)
        bf_d, _ = brute_force_knn(tree.particles.position, 1)
        assert np.allclose(res.dist_sq, bf_d)

    def test_coincident_particles(self):
        """Exact duplicates are legitimate zero-distance neighbours."""
        pos = np.vstack([np.zeros((3, 3)), np.ones((3, 3))])
        tree = build_tree(ParticleSet(pos), tree_type="kd", bucket_size=2)
        res = knn_search(tree, k=2)
        assert np.allclose(res.dist_sq[:, 0], 0.0)

    def test_pruning_is_effective(self):
        """The up-and-down kNN must prune: far fewer pp interactions than
        the all-pairs N²."""
        p = uniform_cube(2000, seed=9)
        t = build_tree(p, tree_type="kd", bucket_size=16)
        res = knn_search(t, k=8)
        assert res.stats.pp_interactions < 0.25 * 2000 * 2000

    def test_targets_subset(self, tree):
        leaves = tree.leaf_indices[:3]
        res = knn_search(tree, k=4, targets=leaves)
        bf_d, _ = brute_force_knn(tree.particles.position, 4)
        for leaf in leaves:
            s, e = tree.pstart[leaf], tree.pend[leaf]
            assert np.allclose(res.dist_sq[s:e], bf_d[s:e])


def lattice():
    g = np.arange(8.0)
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


def duplicated():
    # every point five times, on a dyadic grid so all distances are exact
    rng = np.random.default_rng(21)
    return np.repeat(rng.integers(0, 64, size=(60, 3)) / 64.0, 5, axis=0)


def canonical_knn(pos, k):
    """Brute force, rows in (dist_sq, index) order, written out here so the
    expectation shares no code with the search."""
    delta = pos[None, :, :] - pos[:, None, :]
    d2 = (delta * delta).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    order = np.lexsort((np.broadcast_to(np.arange(len(pos)), d2.shape), d2), axis=1)[:, :k]
    return np.take_along_axis(d2, order, axis=1), order


CHUNKINGS = {
    "whole": lambda leaves: [leaves],
    "halves": lambda leaves: np.array_split(leaves, 2),
    "sevenths": lambda leaves: np.array_split(leaves, 7),
    "reversed": lambda leaves: [leaves[::-1]],
}


@pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
@pytest.mark.parametrize("points", [lattice, duplicated])
class TestCanonicalTieOrder:
    """Equal distances are ordered by neighbour index — at the k-th place
    too, where it decides *which* of the tied candidates is a neighbour —
    whatever other target buckets share a call."""

    K = 6

    def tree(self, points, tree_type):
        return build_tree(ParticleSet(points()), tree_type=tree_type, bucket_size=8)

    def test_knn_search_rows_equal_brute_force_order(self, points, tree_type):
        tree = self.tree(points, tree_type)
        want_d, want_i = canonical_knn(tree.particles.position, self.K)
        res = knn_search(tree, self.K)
        assert np.array_equal(res.dist_sq, want_d)
        assert np.array_equal(res.index, want_i)
        bf_d, bf_i = brute_force_knn(tree.particles.position, self.K)
        assert np.array_equal(bf_d, want_d) and np.array_equal(bf_i, want_i)

    @pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
    def test_any_target_chunking(self, points, tree_type, chunking):
        tree = self.tree(points, tree_type)
        want_d, want_i = canonical_knn(tree.particles.position, self.K)
        visitor = KNNVisitor(tree, self.K)
        engine = get_traverser("up-and-down")
        for chunk in CHUNKINGS[chunking](tree.leaf_indices):
            engine.traverse(tree, visitor, chunk)
        assert np.array_equal(visitor.dist_sq, want_d)
        assert np.array_equal(visitor.index, want_i)

    def test_agrees_with_the_point_query(self, points, tree_type):
        """``knn_points`` is the same search from the query side: a query
        placed on particle *i* for k + 1 finds *i* itself (distance 0), then
        ``knn_search``'s row *i* — the same bytes, also where the cut falls
        inside a tie (the per-point walker it replaced picked among those
        with ``argpartition``)."""
        from repro.apps.knn import knn_points

        tree = self.tree(points, tree_type)
        pos = tree.particles.position
        cuts_in_ties = 0
        for k in (4, self.K):
            d2, _ = canonical_knn(pos, k + 1)
            cuts_in_ties += np.count_nonzero(d2[:, k - 1] == d2[:, k])
            res = knn_search(tree, k)
            got = knn_points(tree, pos, k + 1)
            for i in range(len(pos)):
                others = got.index[i] != i
                assert others.sum() == k and got.dist_sq[i][~others] == 0.0
                assert got.index[i][others].tobytes() == res.index[i].tobytes()
                assert got.dist_sq[i][others].tobytes() == res.dist_sq[i].tobytes()
        assert cuts_in_ties


class TestBallSearch:
    def test_matches_brute_force(self, tree):
        lists, _ = ball_search(tree, 0.11)
        expect = brute_force_ball(tree.particles.position, 0.11)
        for got, want in zip(lists, expect):
            assert set(got.tolist()) == set(want.tolist())

    def test_per_particle_radii(self, tree):
        rng = np.random.default_rng(0)
        radii = rng.uniform(0.02, 0.2, tree.n_particles)
        lists, _ = ball_search(tree, radii)
        expect = brute_force_ball(tree.particles.position, radii)
        for got, want in zip(lists, expect):
            assert set(got.tolist()) == set(want.tolist())

    def test_include_self(self, tree):
        lists, _ = ball_search(tree, 0.05, include_self=True)
        for i, nbrs in enumerate(lists[:50]):
            assert i in nbrs

    def test_zero_radius_finds_only_coincident(self, tree):
        lists, _ = ball_search(tree, 0.0)
        # random clustered data: no exact duplicates
        assert all(len(l) == 0 for l in lists)

    def test_radii_validation(self, tree):
        with pytest.raises(ValueError):
            BallSearchVisitor(tree, -np.ones(tree.n_particles))
        with pytest.raises(ValueError):
            BallSearchVisitor(tree, np.ones(3))

    def test_lists_are_ascending_whatever_the_engine(self, tree):
        """The output is a function of the data: every list ascending, and
        the same under every engine's visit order."""
        rng = np.random.default_rng(1)
        radii = rng.uniform(0.02, 0.15, tree.n_particles)
        default, stats = ball_search(tree, radii)
        assert all(np.all(np.diff(l) > 0) for l in default)
        for engine in ("per-bucket", "transposed"):
            lists, other = ball_search(tree, radii, traverser=engine)
            assert all(np.array_equal(a, b) for a, b in zip(default, lists))
            assert other.pp_interactions == stats.pp_interactions
            assert other.opens == stats.opens

    def test_symmetry(self, tree):
        """Uniform radius: i in N(j) iff j in N(i)."""
        lists, _ = ball_search(tree, 0.09)
        sets = [set(l.tolist()) for l in lists]
        for i in range(0, tree.n_particles, 53):
            for j in sets[i]:
                assert i in sets[j]
