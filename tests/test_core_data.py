"""The Data abstraction: generic accumulation and the vectorised fast path."""

import numpy as np
import pytest

from repro.apps.gravity import CentroidData, compute_centroid_arrays
from repro.core import accumulate_data, segment_sums
from repro.particles import plummer_sphere
from repro.trees import build_tree


@pytest.fixture(scope="module")
def tree():
    return build_tree(plummer_sphere(700, seed=1), tree_type="oct", bucket_size=10)


class TestGenericAccumulation:
    def test_root_has_global_moments(self, tree):
        data = accumulate_data(tree, CentroidData)
        p = tree.particles
        assert data[0].sum_mass == pytest.approx(p.mass.sum())
        com = (p.mass[:, None] * p.position).sum(axis=0) / p.mass.sum()
        assert np.allclose(data[0].centroid(), com)

    def test_every_node_matches_its_slice(self, tree):
        data = accumulate_data(tree, CentroidData)
        p = tree.particles
        for i in range(0, tree.n_nodes, 11):
            s, e = tree.pstart[i], tree.pend[i]
            assert data[i].sum_mass == pytest.approx(p.mass[s:e].sum())
            expect = (p.mass[s:e, None] * p.position[s:e]).sum(axis=0)
            assert np.allclose(data[i].moment, expect)

    def test_data_attached_to_tree(self, tree):
        accumulate_data(tree, CentroidData)
        assert tree.data is not None
        assert tree.node(0).data.sum_mass > 0

    def test_parent_equals_sum_of_children(self, tree):
        data = accumulate_data(tree, CentroidData)
        for i in range(tree.n_nodes):
            kids = tree.children(i)
            if len(kids) == 0:
                continue
            total = CentroidData.empty()
            for c in kids:
                total += data[int(c)]
            assert total.sum_mass == pytest.approx(data[i].sum_mass)
            assert np.allclose(total.moment, data[i].moment)

    def test_quadrupole_is_traceless_symmetric(self, tree):
        data = accumulate_data(tree, CentroidData)
        q = data[0].quadrupole()
        assert np.allclose(q, q.T)
        assert abs(np.trace(q)) < 1e-9 * np.abs(q).max()


class TestVectorisedFastPath:
    def test_matches_generic_engine(self, tree):
        """The prefix-sum extraction is exactly the generic accumulation."""
        data = accumulate_data(tree, CentroidData)
        arrays = compute_centroid_arrays(tree, theta=0.7, with_quadrupole=True)
        for i in range(0, tree.n_nodes, 5):
            assert arrays.mass[i] == pytest.approx(data[i].sum_mass)
            assert np.allclose(arrays.centroid[i], data[i].centroid(), atol=1e-12)
            assert np.allclose(arrays.quad[i], data[i].quadrupole(), atol=1e-6)

    def test_opening_radius_monotone_with_theta(self, tree):
        loose = compute_centroid_arrays(tree, theta=1.0)
        tight = compute_centroid_arrays(tree, theta=0.3)
        assert np.all(tight.open_radius_sq >= loose.open_radius_sq)

    def test_invalid_theta(self, tree):
        with pytest.raises(ValueError):
            compute_centroid_arrays(tree, theta=0.0)


class TestSegmentSums:
    def test_matches_loop(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=100)
        starts = np.array([0, 10, 50, 99, 30])
        ends = np.array([10, 50, 99, 100, 30])  # includes an empty range
        out = segment_sums(v, starts, ends)
        for k, (s, e) in enumerate(zip(starts, ends)):
            assert out[k] == pytest.approx(v[s:e].sum())

    def test_2d_values(self):
        v = np.arange(12, dtype=float).reshape(6, 2)
        out = segment_sums(v, np.array([0, 3]), np.array([3, 6]))
        assert np.allclose(out[0], v[:3].sum(axis=0))
        assert np.allclose(out[1], v[3:].sum(axis=0))
