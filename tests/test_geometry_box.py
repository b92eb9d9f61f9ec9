"""Unit tests for Box3 and the vectorised box kernels."""

import numpy as np
import pytest

from repro.geometry import (
    Box3,
    bounding_box,
    boxes_center,
    boxes_contain_points,
    boxes_intersect_boxes,
    boxes_longest_dim,
    boxes_union,
    point_box_distance_sq,
    points_boxes_distance_sq,
)
from repro.geometry.box import boxes_box_distance_sq


class TestBox3Basics:
    def test_empty_box_identity(self):
        empty = Box3.empty()
        assert empty.is_empty
        box = Box3([0, 0, 0], [1, 2, 3])
        assert empty.union(box) == box
        assert box.union(empty) == box

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
        assert Box3.empty().volume == 0.0

    def test_contains(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.contains([0.5, 0.5, 0.5])
        assert box.contains([0, 0, 0])  # boundary closed
        assert box.contains([1, 1, 1])
        assert not box.contains([1.0001, 0.5, 0.5])

    def test_contains_box(self):
        outer = Box3([0, 0, 0], [4, 4, 4])
        inner = Box3([1, 1, 1], [2, 2, 2])
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert outer.contains_box(Box3.empty())

    def test_intersects(self):
        a = Box3([0, 0, 0], [1, 1, 1])
        b = Box3([0.5, 0.5, 0.5], [2, 2, 2])
        c = Box3([2.5, 2.5, 2.5], [3, 3, 3])
        assert a.intersects(b)
        assert not a.intersects(c)
        # touching faces counts as intersecting (closed boxes)
        assert a.intersects(Box3([1, 0, 0], [2, 1, 1]))

    def test_distance_sq_inside_is_zero(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.distance_sq([0.5, 0.5, 0.5]) == 0.0
        assert box.distance_sq([2, 0.5, 0.5]) == pytest.approx(1.0)
        assert box.distance_sq([2, 2, 0.5]) == pytest.approx(2.0)

    def test_farthest_distance(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.farthest_distance_sq([0, 0, 0]) == pytest.approx(3.0)

    def test_split(self):
        box = Box3([0, 0, 0], [2, 2, 2])
        left, right = box.split(0, 0.5)
        assert left.hi[0] == 0.5 and right.lo[0] == 0.5
        assert left.union(right) == box

    def test_octants_partition_volume(self):
        box = Box3([0, 0, 0], [2, 2, 2])
        octants = [box.octant(i) for i in range(8)]
        assert sum(o.volume for o in octants) == pytest.approx(box.volume)
        # octant 0 is the all-low corner; octant 7 the all-high corner
        assert np.array_equal(octants[0].lo, [0, 0, 0])
        assert np.array_equal(octants[7].hi, [2, 2, 2])
        assert np.array_equal(octants[1].lo, [1, 0, 0])  # bit0 = x

    def test_cubified(self):
        box = Box3([0, 0, 0], [1, 2, 4])
        cube = box.cubified()
        assert np.allclose(cube.size, [4, 4, 4])
        assert np.allclose(cube.center, box.center)
        assert cube.contains_box(box)

    def test_expanded(self):
        box = Box3([0, 0, 0], [1, 1, 1]).expanded(0.5)
        assert np.array_equal(box.lo, [-0.5] * 3)
        assert np.array_equal(box.hi, [1.5] * 3)

    def test_radius_sq(self):
        box = Box3([0, 0, 0], [2, 2, 2])
        assert box.radius_sq == pytest.approx(3.0)

    def test_intersects_sphere(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        assert box.intersects_sphere([2, 0.5, 0.5], 1.0)
        assert not box.intersects_sphere([2.5, 0.5, 0.5], 1.0)


class TestVectorisedKernels:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.lo = rng.uniform(-1, 0, (50, 3))
        self.hi = self.lo + rng.uniform(0.1, 1.0, (50, 3))

    def test_boxes_union_matches_scalar(self):
        u = boxes_union(self.lo, self.hi)
        expect = Box3.empty()
        for lo, hi in zip(self.lo, self.hi):
            expect = expect.union(Box3(lo, hi))
        assert u == expect

    def test_boxes_union_empty_list(self):
        assert boxes_union(np.empty((0, 3)), np.empty((0, 3))).is_empty

    def test_boxes_center(self):
        c = boxes_center(self.lo, self.hi)
        assert np.allclose(c, (self.lo + self.hi) / 2)

    def test_boxes_longest_dim_matches_scalar(self):
        dims = boxes_longest_dim(self.lo, self.hi)
        for i in range(len(self.lo)):
            assert dims[i] == Box3(self.lo[i], self.hi[i]).longest_dim

    def test_point_box_distance_matches_scalar(self):
        rng = np.random.default_rng(1)
        pt = rng.uniform(-2, 2, 3)
        d = point_box_distance_sq(self.lo, self.hi, pt)
        for i in range(len(self.lo)):
            assert d[i] == pytest.approx(Box3(self.lo[i], self.hi[i]).distance_sq(pt))

    def test_points_boxes_distance_matrix(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, (7, 3))
        d = points_boxes_distance_sq(self.lo, self.hi, pts)
        assert d.shape == (50, 7)
        for i in range(5):
            for j in range(7):
                assert d[i, j] == pytest.approx(
                    Box3(self.lo[i], self.hi[i]).distance_sq(pts[j])
                )

    def test_boxes_contain_points_broadcast(self):
        centers = (self.lo + self.hi) / 2
        assert boxes_contain_points(self.lo, self.hi, centers).all()
        assert not boxes_contain_points(self.lo, self.hi, self.hi + 1.0).any()

    def test_boxes_intersect_boxes_self(self):
        assert boxes_intersect_boxes(self.lo, self.hi, self.lo, self.hi).all()

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
    def test_union_point(self):
        box = Box3([0, 0, 0], [1, 1, 1]).union_point([2.0, -1.0, 0.5])
        assert np.array_equal(box.lo, [0, -1, 0])
        assert np.array_equal(box.hi, [2, 1, 1])

    def test_degenerate_box_contains_its_point(self):
        box = Box3([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        assert not box.is_empty
        assert box.contains([0.5, 0.5, 0.5])
        assert box.volume == 0.0

    def test_empty_box_never_intersects(self):
        empty = Box3.empty()
        full = Box3([0, 0, 0], [1, 1, 1])
        assert not empty.intersects(full)
        assert not full.intersects(empty)

    def test_cube_constructor(self):
        box = Box3.cube([1, 2, 3], 0.5)
        assert np.array_equal(box.lo, [0.5, 1.5, 2.5])
        assert np.array_equal(box.hi, [1.5, 2.5, 3.5])

    def test_longest_dim_tie_breaks_low(self):
        assert Box3([0, 0, 0], [1, 1, 1]).longest_dim == 0
