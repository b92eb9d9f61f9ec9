"""3-D Hilbert space-filling-curve keys (Skilling's transpose algorithm).

Morton keys (the default SFC) have locality discontinuities: consecutive
key ranges can jump across the volume at octant boundaries.  The Hilbert
curve visits every cell of the grid through face-adjacent steps, giving
decomposition slices with smaller surface area — less leaf sharing and
fewer remote fetches at partition borders.  The framework exposes it as a
drop-in alternative (``decomp_type="hilbert"``).

Implementation: John Skilling, "Programming the Hilbert curve", AIP Conf.
Proc. 707 (2004).  Coordinates are mutated in place to the "transposed"
Hilbert representation and then bit-interleaved.  All operations are
vectorised over the particle arrays with uint64 bit arithmetic; the per-bit
loop runs ``HILBERT_BITS`` times.
"""

from __future__ import annotations

import numpy as np

from .box import Box3
from .morton import MORTON_BITS, MORTON_MAX_COORD, morton_encode, normalize_to_grid

__all__ = ["HILBERT_BITS", "hilbert_encode", "hilbert_keys"]

#: Bits of resolution per dimension (same grid as the Morton keys).
HILBERT_BITS = MORTON_BITS


def _axes_to_transpose(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Forward Skilling transform: grid coords -> transposed Hilbert."""
    X = [x.astype(np.uint64).copy(), y.astype(np.uint64).copy(), z.astype(np.uint64).copy()]
    one = np.uint64(1)
    M = np.uint64(1) << np.uint64(HILBERT_BITS - 1)

    # Inverse undo excess work (from Skilling's TransposetoAxes run forward).
    Q = M
    while Q > one:
        P = Q - one
        for i in range(3):
            swap = (X[i] & Q) != 0
            # invert low bits of X[0] where the Q bit of X[i] is set
            X[0] = np.where(swap, X[0] ^ P, X[0])
            # exchange low bits of X[i] and X[0] where not set
            t = (X[0] ^ X[i]) & P
            t = np.where(swap, np.uint64(0), t)
            X[0] ^= t
            X[i] ^= t
        Q >>= one

    # Gray encode.
    for i in range(1, 3):
        X[i] ^= X[i - 1]
    t = np.zeros_like(X[0])
    Q = M
    while Q > one:
        t = np.where((X[2] & Q) != 0, t ^ (Q - one), t)
        Q >>= one
    for i in range(3):
        X[i] ^= t
    return X


def hilbert_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Hilbert keys for integer grid coordinates -> (N,) uint64.

    The transposed representation is interleaved with the Morton bit
    spreader (axis 0 carries the most significant bit of each triple, so
    it lands in the z slot of the interleave to preserve significance
    ordering).
    """
    ix = np.asarray(ix, dtype=np.uint64)
    iy = np.asarray(iy, dtype=np.uint64)
    iz = np.asarray(iz, dtype=np.uint64)
    if np.any(ix > MORTON_MAX_COORD) or np.any(iy > MORTON_MAX_COORD) or np.any(
        iz > MORTON_MAX_COORD
    ):
        raise ValueError(f"grid coordinates exceed {HILBERT_BITS}-bit range")
    X = _axes_to_transpose(ix, iy, iz)
    # In the transposed form, bit b of X[0] X[1] X[2] (in that order) makes
    # up the b-th most significant key triple.
    return morton_encode(X[2], X[1], X[0])


def hilbert_keys(points: np.ndarray, box: Box3) -> np.ndarray:
    """Hilbert key of each point in the universe ``box`` -> (N,) uint64."""
    grid = normalize_to_grid(points, box)
    return hilbert_encode(grid[:, 0], grid[:, 1], grid[:, 2])
