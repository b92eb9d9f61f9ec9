"""Small vectorised helpers shared by the traversal engines."""

from __future__ import annotations

import numpy as np

__all__ = ["ranges_to_indices", "segment_sums"]


def ranges_to_indices(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]`` without a
    Python loop.

    This is the gather step of the transposed traversal: turning a batch of
    bucket particle ranges into one flat index array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(ends, dtype=np.int64) - starts    # a negative one: ValueError below
    # Output position i of range j (which ends at last[j]) holds
    # starts[j] + i - (last[j] - counts[j]); empty ranges repeat zero times.
    last = np.cumsum(counts)
    return np.arange(last[-1] if last.size else 0) - np.repeat(last - counts - starts, counts)


def segment_sums(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sum ``values`` over each half-open range ``[starts, ends)``.

    Uses an exclusive prefix sum, so the cost is O(N + M) regardless of how
    ranges overlap — exactly how tree-node moments are extracted from the
    tree-ordered particle arrays.
    """
    values = np.asarray(values, dtype=np.float64)
    cum = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(values, axis=0)])
    return cum[np.asarray(ends)] - cum[np.asarray(starts)]
