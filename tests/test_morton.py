"""Morton (Z-order) key tests: bit-exactness, ordering, prefix semantics."""

import numpy as np
import pytest

from repro.geometry import (
    MORTON_BITS,
    MORTON_MAX_COORD,
    Box3,
    morton_encode,
    morton_keys,
    normalize_to_grid,
)

from tests.harness.sfc_decode import morton_decode


class TestEncodeDecode:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        ix = rng.integers(0, MORTON_MAX_COORD + 1, 5000, dtype=np.uint64)
        iy = rng.integers(0, MORTON_MAX_COORD + 1, 5000, dtype=np.uint64)
        iz = rng.integers(0, MORTON_MAX_COORD + 1, 5000, dtype=np.uint64)
        dx, dy, dz = morton_decode(morton_encode(ix, iy, iz))
        assert np.array_equal(ix, dx)
        assert np.array_equal(iy, dy)
        assert np.array_equal(iz, dz)

    def test_known_small_values(self):
        # Interleave pattern: x0 y0 z0 x1 y1 z1 ...
        assert int(morton_encode(np.array([1]), np.array([0]), np.array([0]))[0]) == 0b001
        assert int(morton_encode(np.array([0]), np.array([1]), np.array([0]))[0]) == 0b010
        assert int(morton_encode(np.array([0]), np.array([0]), np.array([1]))[0]) == 0b100
        assert int(morton_encode(np.array([3]), np.array([0]), np.array([0]))[0]) == 0b1001
        assert int(morton_encode(np.array([1]), np.array([1]), np.array([1]))[0]) == 0b111

    def test_max_coordinate_fits(self):
        k = morton_encode(
            np.array([MORTON_MAX_COORD]),
            np.array([MORTON_MAX_COORD]),
            np.array([MORTON_MAX_COORD]),
        )
        assert int(k[0]) == (1 << (3 * MORTON_BITS)) - 1

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([MORTON_MAX_COORD + 1]), np.array([0]), np.array([0]))

    def test_monotone_along_x(self):
        """Holding y,z fixed, increasing x increases the key."""
        x = np.arange(100, dtype=np.uint64)
        k = morton_encode(x, np.zeros(100, np.uint64), np.zeros(100, np.uint64))
        assert np.all(np.diff(k.astype(np.int64)) > 0)


class TestGridNormalisation:
    def test_corners(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        grid = normalize_to_grid(np.array([[0.0, 0, 0], [1.0, 1, 1]]), box)
        assert np.array_equal(grid[0], [0, 0, 0])
        # upper face maps to max coordinate, not overflow
        assert np.array_equal(grid[1], [MORTON_MAX_COORD] * 3)

    def test_out_of_box_points_clamp(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        grid = normalize_to_grid(np.array([[-5.0, 2.0, 0.5]]), box)
        assert grid[0, 0] == 0
        assert grid[0, 1] == MORTON_MAX_COORD

    def test_degenerate_box(self):
        box = Box3([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])
        grid = normalize_to_grid(np.array([[0.5, 0.5, 0.5]]), box)
        assert grid.shape == (1, 3)  # no crash on zero-size box


def prefix(keys, level):
    """The key of the octree node at ``level`` holding each key: its top
    ``3 * level`` bits (the hashed-octree layout)."""
    return keys >> np.uint64(3 * (MORTON_BITS - level))


class TestPrefixSemantics:
    def test_ancestor_key_levels(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (200, 3))
        box = Box3([0, 0, 0], [1, 1, 1])
        keys = morton_keys(pts, box)
        # level 0: every particle under the root
        assert np.all(prefix(keys, 0) == 0)
        # deeper levels refine: children's prefixes nest
        lvl1 = prefix(keys, 1)
        lvl2 = prefix(keys, 2)
        assert np.all(lvl2 >> np.uint64(3) == lvl1)

    def test_level1_prefix_matches_octant(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        # A point in the all-high octant has level-1 prefix 0b111.
        keys = morton_keys(np.array([[0.9, 0.9, 0.9]]), box)
        assert int(prefix(keys, 1)[0]) == 0b111
        keys = morton_keys(np.array([[0.1, 0.1, 0.1]]), box)
        assert int(prefix(keys, 1)[0]) == 0

    def test_keys_in_node(self):
        box = Box3([0, 0, 0], [1, 1, 1])
        pts = np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9], [0.9, 0.1, 0.1]])
        keys = morton_keys(pts, box)
        assert np.array_equal(prefix(keys, 1) == 0, [True, False, False])
        assert np.array_equal(prefix(keys, 1) == 0b111, [False, True, False])
        assert np.array_equal(prefix(keys, 1) == 0b001, [False, False, True])


def test_sorted_keys_group_spatially():
    """Particles adjacent along the sorted curve are spatially close (the
    property SFC decomposition relies on): mean neighbour distance along the
    curve is far below the mean distance of random pairs."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, (2000, 3))
    box = Box3([0, 0, 0], [1, 1, 1])
    order = np.argsort(morton_keys(pts, box))
    sorted_pts = pts[order]
    curve_dist = np.linalg.norm(np.diff(sorted_pts, axis=0), axis=1).mean()
    shuffled = pts[rng.permutation(2000)]
    random_dist = np.linalg.norm(shuffled[:-1] - shuffled[1:], axis=1).mean()
    assert curve_dist < 0.3 * random_dist
