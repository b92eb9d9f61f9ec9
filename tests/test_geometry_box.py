"""Unit tests for Box3 and the vectorised box kernels."""

import numpy as np
import pytest

from repro.geometry import Box3, bounding_box, point_box_distance_sq
from repro.geometry.box import boxes_box_distance_sq


class TestBox3Basics:
    def test_from_points_tight(self):
        pts = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
        box = Box3.from_points(pts)
        assert np.array_equal(box.lo, [0.0, -1.0, 0.5])
        assert np.array_equal(box.hi, [3.0, 1.0, 2.0])

    def test_from_no_points_is_empty(self):
        assert Box3.from_points(np.empty((0, 3))).is_empty

    def test_center_size_volume(self):
        box = Box3([0, 0, 0], [2, 4, 6])
        assert np.array_equal(box.center, [1, 2, 3])
        assert np.array_equal(box.size, [2, 4, 6])
        assert box.volume == 48.0
        assert box.longest_dim == 2

    def test_volume_of_empty_is_zero(self):
        assert Box3().volume == 0.0

    def test_distance_sq_inside_is_zero(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.distance_sq([0.5, 0.5, 0.5]) == 0.0
        assert box.distance_sq([2, 0.5, 0.5]) == pytest.approx(1.0)
        assert box.distance_sq([2, 2, 0.5]) == pytest.approx(2.0)

    def test_cubified(self):
        box = Box3([0, 0, 0], [1, 2, 4])
        cube = box.cubified()
        assert np.allclose(cube.size, [4, 4, 4])
        assert np.allclose(cube.center, box.center)
        assert np.all(cube.lo <= box.lo) and np.all(box.hi <= cube.hi)

    def test_expanded(self):
        box = Box3([0, 0, 0], [1, 1, 1]).expanded(0.5)
        assert np.array_equal(box.lo, [-0.5] * 3)
        assert np.array_equal(box.hi, [1.5] * 3)

    def test_intersects_sphere(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.intersects_sphere([2, 0.5, 0.5], 1.0)
        assert not box.intersects_sphere([2.5, 0.5, 0.5], 1.0)


class TestVectorisedKernels:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.lo = rng.uniform(-1, 0, (50, 3))
        self.hi = self.lo + rng.uniform(0.1, 1.0, (50, 3))

    def test_point_box_distance_matches_scalar(self):
        rng = np.random.default_rng(1)
        pt = rng.uniform(-2, 2, 3)
        d = point_box_distance_sq(self.lo, self.hi, pt)
        for i in range(len(self.lo)):
            assert d[i] == pytest.approx(Box3(self.lo[i], self.hi[i]).distance_sq(pt))

    def test_boxes_box_distance_symmetry_and_overlap(self):
        d = boxes_box_distance_sq(self.lo, self.hi, self.lo[0], self.hi[0])
        assert d[0] == 0.0
        d_rev = boxes_box_distance_sq(self.lo[0], self.hi[0], self.lo, self.hi)
        assert np.allclose(d, d_rev)
        # disjoint along one axis by exactly 1.0
        a_lo, a_hi = np.zeros(3), np.ones(3)
        b_lo, b_hi = np.array([2.0, 0, 0]), np.array([3.0, 1, 1])
        assert boxes_box_distance_sq(a_lo, a_hi, b_lo, b_hi) == pytest.approx(1.0)


def test_bounding_box_pad():
    pts = np.array([[0.0, 0, 0], [1.0, 1, 1]])
    padded = bounding_box(pts, pad=0.1)
    assert np.allclose(padded.lo, [-0.1] * 3)
    assert np.allclose(padded.hi, [1.1] * 3)


class TestBoxMoreEdgeCases:
    def test_degenerate_box_contains_its_point(self):
        box = Box3([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        assert not box.is_empty
        assert box.distance_sq([0.5, 0.5, 0.5]) == 0.0
        assert box.volume == 0.0

    def test_longest_dim_tie_breaks_low(self):
        assert Box3([0, 0, 0], [1, 1, 1]).longest_dim == 0
