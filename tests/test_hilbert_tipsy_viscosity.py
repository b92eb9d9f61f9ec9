"""Hilbert SFC keys and the Hilbert decomposer."""

import numpy as np
import pytest

from repro.geometry import Box3, hilbert_encode, hilbert_keys, morton_keys
from repro.particles import clustered_clumps, uniform_cube

from tests.harness.sfc_decode import hilbert_decode, morton_decode


class TestHilbert:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        ix = rng.integers(0, 2**21, 2000, dtype=np.uint64)
        iy = rng.integers(0, 2**21, 2000, dtype=np.uint64)
        iz = rng.integers(0, 2**21, 2000, dtype=np.uint64)
        dx, dy, dz = hilbert_decode(hilbert_encode(ix, iy, iz))
        assert np.array_equal(ix, dx)
        assert np.array_equal(iy, dy)
        assert np.array_equal(iz, dz)

    def test_continuity(self):
        """The defining Hilbert property: consecutive keys decode to
        face-adjacent cells (|step| == 1 in exactly one axis)."""
        for start in (0, 987654321, (1 << 40) + 17):
            ks = np.arange(2000, dtype=np.uint64) + np.uint64(start)
            x, y, z = hilbert_decode(ks)
            step = (
                np.abs(np.diff(x.astype(np.int64)))
                + np.abs(np.diff(y.astype(np.int64)))
                + np.abs(np.diff(z.astype(np.int64)))
            )
            assert np.all(step == 1), start

    def test_morton_is_not_continuous(self):
        """Contrast: the Morton curve jumps at octant boundaries."""
        ks = np.arange(2000, dtype=np.uint64)
        x, y, z = morton_decode(ks)
        step = (
            np.abs(np.diff(x.astype(np.int64)))
            + np.abs(np.diff(y.astype(np.int64)))
            + np.abs(np.diff(z.astype(np.int64)))
        )
        assert step.max() > 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.array([1 << 21]), np.array([0]), np.array([0]))

    def test_keys_unique_for_distinct_cells(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (500, 3))
        keys = hilbert_keys(pts, Box3([0, 0, 0], [1, 1, 1]))
        assert len(np.unique(keys)) == 500

    def test_hilbert_slices_more_compact_than_morton(self):
        """Partition slices along the Hilbert curve have smaller bounding
        volumes than Morton slices — the locality payoff."""
        p = uniform_cube(6000, seed=2)
        box = p.bounding_box().cubified()

        def mean_slice_volume(keys, n_parts=8):
            order = np.argsort(keys)
            vols = []
            for chunk in np.array_split(order, n_parts):
                sub = p.position[chunk]
                vols.append(float(np.prod(sub.max(axis=0) - sub.min(axis=0))))
            return np.mean(vols)

        v_h = mean_slice_volume(hilbert_keys(p.position, box))
        v_m = mean_slice_volume(morton_keys(p.position, box))
        assert v_h < v_m

    def test_hilbert_decomposer_registered(self):
        from repro.decomp import get_decomposer

        parts = get_decomposer("hilbert").assign(clustered_clumps(2000, seed=3), 8)
        counts = np.bincount(parts, minlength=8)
        # near-perfect count balance (ties at splitter keys can shift one
        # or two particles between neighbouring slices)
        assert counts.max() - counts.min() <= 2
