"""Inverses of the space-filling-curve encoders, for tests only.

Nothing in the product decodes a key: these exist to check that
:func:`repro.geometry.morton_encode` and :func:`repro.geometry.hilbert_encode`
are bijections on the 21-bit grid and that the Hilbert curve steps between
face-adjacent cells.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hilbert import HILBERT_BITS
from repro.geometry.morton import _MASKS, _SHIFTS


def _compact1by2(x: np.ndarray) -> np.ndarray:
    """Inverse of ``repro.geometry.morton._part1by2``."""
    x = x.astype(np.uint64) & _MASKS[-1]
    for shift, mask in zip(reversed(_SHIFTS), reversed(_MASKS[:-1])):
        x = (x | (x >> np.uint64(shift))) & mask
    return x


def morton_decode(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the (ix, iy, iz) grid coordinates from Morton keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    return (
        _compact1by2(keys),
        _compact1by2(keys >> np.uint64(1)),
        _compact1by2(keys >> np.uint64(2)),
    )


def _transpose_to_axes(X: list[np.ndarray]):
    """Inverse Skilling transform: transposed Hilbert -> grid coords."""
    X = [x.astype(np.uint64).copy() for x in X]
    one = np.uint64(1)
    N = np.uint64(2) << np.uint64(HILBERT_BITS - 1)

    # Gray decode by H ^ (H/2).
    t = X[2] >> one
    for i in range(2, 0, -1):
        X[i] ^= X[i - 1]
    X[0] ^= t

    # Undo excess work.
    Q = np.uint64(2)
    while Q != N:
        P = Q - one
        for i in range(2, -1, -1):
            swap = (X[i] & Q) != 0
            X[0] = np.where(swap, X[0] ^ P, X[0])
            t = (X[0] ^ X[i]) & P
            t = np.where(swap, np.uint64(0), t)
            X[0] ^= t
            X[i] ^= t
        Q <<= one
    return X


def hilbert_decode(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_encode`."""
    k2, k1, k0 = morton_decode(np.asarray(keys, dtype=np.uint64))
    X = _transpose_to_axes([k0, k1, k2])
    return X[0], X[1], X[2]
