"""Frontier traversal kernels (numpy).

The batched traversal engine (:mod:`repro.core.batched`) carries its
frontier as flat ``(source, target)`` pair arrays and hands them over in
slices of bounded work.  The kernels here evaluate one slice per call: the
MAC acceptance test, gravity over per-target interaction lists (point
masses — node centroids or leaf particles — and the quadrupole terms of
node items), and the neighbour-search pair (the one squared-distance
kernel, and the segmented k-nearest merge behind the up-and-down engine's
``leaf_pairs``).

Every kernel has one implementation, written by coordinate in a fixed
operation order: a target row's contributions within one call are summed by
``np.add.reduceat`` over that row's interaction list, in list order, and
added to the output once per call.  The scalar-loop goldens in
``tests/test_differential.py`` state the same per-pair arithmetic one pair
at a time and pin it bit for bit.  The dense ``(targets, sources)``
front-ends :func:`pairwise_accel` / :func:`pairwise_potential` (direct
summation, FMM P2P) evaluate the same per-pair expressions, so a direct sum
and a tree walk that meet the same pair compute the same bits for it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "components",
    "symmetric_components",
    "mac_open_pairs",
    "expand_pair_products",
    "ListLayout",
    "list_layout",
    "accumulate_point_masses",
    "pairwise_accel",
    "pairwise_potential",
    "pair_dist_sq",
    "merge_nearest",
]

# ---------------------------------------------------------------------------
# Pair expansion helpers (pure indexing — one implementation).
# ---------------------------------------------------------------------------

def expand_pair_products(
    tstart: np.ndarray, tend: np.ndarray, sstart: np.ndarray, send: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand P (target-range, source-range) pairs into the full particle
    cross product: (target_rows, source_rows), pair-major, target-outer.

    The flat length equals the frontier's ``pp_interactions``.
    """
    from ..core.util import ranges_to_indices

    tc = tend - tstart
    # Division-free expansion: each target row of pair p repeats sc[p]
    # times, and each (pair, target-row) block replays [sstart_p, send_p).
    t_rows = np.repeat(ranges_to_indices(tstart, tend), np.repeat(send - sstart, tc))
    s_rows = ranges_to_indices(np.repeat(sstart, tc), np.repeat(send, tc))
    return t_rows, s_rows


# ---------------------------------------------------------------------------
# Structure-of-arrays inputs.
#
# Every vector argument below (positions, centres, box corners) is read by
# coordinate.  Callers on the hot path keep one contiguous array per
# coordinate — made once per visitor, not once per call — and gather from
# those; an ``(n, 3)`` array is accepted too and split here.
# ---------------------------------------------------------------------------

def components(a) -> tuple:
    """The coordinate columns of ``a`` as contiguous 1-D arrays (a sequence
    of such arrays passes through untouched)."""
    if isinstance(a, np.ndarray):
        return tuple(np.ascontiguousarray(a[:, j]) for j in range(a.shape[1]))
    return tuple(a)


#: Independent entries of a symmetric 3x3 tensor, in the order the
#: quadrupole kernel takes them: xx, xy, xz, yy, yz, zz.
SYMMETRIC_3X3 = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def symmetric_components(q) -> tuple:
    """The six independent entries of ``(n, 3, 3)`` symmetric tensors as
    contiguous 1-D arrays (a sequence of six passes through untouched)."""
    if isinstance(q, np.ndarray):
        return tuple(np.ascontiguousarray(q[:, i, j]) for i, j in SYMMETRIC_3X3)
    return tuple(q)


# ---------------------------------------------------------------------------
# MAC acceptance (pairwise sphere-box test).
# ---------------------------------------------------------------------------

def mac_open_pairs(box_lo, box_hi, center, radius_sq) -> np.ndarray:
    """Pairwise multipole-acceptance test: does target box k intersect the
    opening sphere of source k?  All inputs are per-pair."""
    d = [np.maximum(np.maximum(lo - c, c - hi), 0.0)
         for lo, hi, c in zip(components(box_lo), components(box_hi), components(center))]
    return _dot(d, d) <= radius_sq


# ---------------------------------------------------------------------------
# Interaction lists: the accumulation layout of the gravity kernels.
#
# A call receives a target-major slice of the frontier, so all pairs of one
# target form a run, and that run is the target's interaction list for the
# call: a closed pair adds one item (the node's centroid and G m), an opened
# leaf its particles, in pair order.  The caller gathers the item tables
# once, at list length.  Each target row is then expanded against its own
# list — row-major: the row repeats, the list replays — so a row's
# contributions are contiguous, one ``np.add.reduceat`` per coordinate sums
# them in list order, and one ``out[rows] += sums`` adds them in.
#
# * A row's sum is a function of its own list, and a target's list is the
#   same whichever other targets share the call: the engine cuts between
#   targets, so the bits do not depend on the cut, the chunking, the worker
#   count or the schedule that delivers a target's pairs.
# * Only the items are gathered per contribution (``item_of``).  A target
#   row's coordinates are the same for its whole list, so they are replayed
#   — each row's value repeated its list length — rather than gathered
#   through a per-contribution row index; no such index is made.
# * The per-contribution arrays a call makes are its own: the separation is
#   taken into the fresh item copies, ``|d|²`` into the spent row replays,
#   and ``r² + ε²`` in place, so no temporary is as long as the output and
#   no pair array exists only to be scattered back.
# * A call that is one list (the per-bucket schedule; an oversized target)
#   needs no index arrays: its rows are a range and the items a table, so
#   an ``(n_rows, 1)`` column broadcast against a ``(1, n_items)`` row lays
#   the contributions out in the same row-major order.  Both are views of
#   the caller's tables, so here the separation is a new array.
# ---------------------------------------------------------------------------

def _run_bounds(a):
    """``b`` such that ``a[b[j]:b[j + 1]]`` is the j-th run of equal adjacent
    values of the non-empty ``a``."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1], [True])))


class ListLayout(NamedTuple):
    """Where each contribution of one call comes from and goes to: the
    target ``rows``, each once; each row's list length (``counts``) and
    where its contributions ``starts``; and the index, per contribution, of
    its list item (``item_of``).  A call that is one list has a ``slice`` of
    rows, one ``int`` count and a ``(None, items)`` item index: its
    contributions are a broadcast ``(n_rows, n_items)`` block of views."""

    rows: np.ndarray | slice
    starts: np.ndarray
    counts: np.ndarray | int
    item_of: np.ndarray | tuple

    def replay(self, column):
        """``column``'s value at each contribution's target row: each row's
        value repeated ``counts`` times."""
        return np.repeat(column[self.rows], self.counts)


def list_layout(targets, tstart, tend, n_items=None) -> ListLayout:
    """The interaction lists of one slice of ``(source, target)`` pairs.

    Pair ``p`` offers ``n_items[p]`` list items (default one) to each
    target row in ``[tstart[p], tend[p])``; items are numbered in pair
    order, which is how the caller's item tables are laid out.  Every list
    holds an item (tree leaves are never empty).  Pairs should be
    target-major; a target met in more than one run has its pairs grouped,
    in order, so no row is added to twice."""
    from ..core.util import ranges_to_indices

    n_items = np.ones(targets.size, dtype=np.int64) if n_items is None else n_items
    bounds = _run_bounds(targets)
    if bounds.size == 2:
        rows, n = slice(int(tstart[0]), int(tend[0])), int(n_items.sum())
        starts = np.arange(0, (rows.stop - rows.start) * n, n)
        return ListLayout(rows, starts, n, (None, slice(None)))
    run, heads = bounds[:-1], targets[bounds[:-1]]
    # an engine slice is in ascending target order, so the sort is rare
    if not (heads[1:] > heads[:-1]).all() and np.unique(heads).size != run.size:
        # the layout of the pairs grouped by target, items renumbered
        order = np.argsort(targets, kind="stable")
        first, n = (np.cumsum(n_items) - n_items)[order], n_items[order]
        layout = list_layout(targets[order], tstart[order], tend[order], n)
        return layout._replace(item_of=ranges_to_indices(first, first + n)[layout.item_of])
    # run j's list is the items [edge[j], edge[j + 1]); seg is each row's list length
    edge = np.concatenate(([0], np.cumsum(n_items)))[bounds]
    n_rows = tend[run] - tstart[run]
    seg = np.repeat(edge[1:] - edge[:-1], n_rows)
    starts = np.cumsum(seg) - seg
    item_of = np.repeat(np.repeat(edge[:-1], n_rows) - starts, seg)
    item_of += np.arange(starts[-1] + seg[-1])
    return ListLayout(ranges_to_indices(tstart[run], tend[run]), starts, seg, item_of)


def _add_row_sums(out, layout, values):
    """``out[rows] +=`` each row's ``values`` summed in list order (``out``
    is ``(n, len(values))``, or ``(n,)`` for one value)."""
    if values[0].size != layout.starts.size:      # some list holds more than one item
        values = [np.add.reduceat(v.ravel(), layout.starts) for v in values]
    for column, v in zip(np.atleast_2d(out.T), values):
        column[layout.rows] += v.ravel()


def _dot(a, b, out=None, spare=None):
    """``a · b`` of per-coordinate arrays, products summed x, y, z (into
    ``out``; the second and third products into ``spare``, if given)."""
    r = np.multiply(a[0], b[0], out=out)
    r += np.multiply(a[1], b[1], out=spare)
    r += np.multiply(a[2], b[2], out=spare)
    return r


def _separation(source, target):
    """Per-pair ``d = source - target`` by coordinate, and ``|d|²``."""
    d = [s - t for s, t in zip(source, target)]
    return d, _dot(d, d)


# ---------------------------------------------------------------------------
# Gravity: the Plummer point mass, ``a = G m d / (r² + ε²)^{3/2}`` and
# ``φ = -G m / sqrt(r² + ε²)`` with ``d = source - target``; a pair at zero
# distance (a particle and itself) contributes nothing.  The weight and the
# inverse distance are written once: a list item (a node's centroid, a leaf
# particle) against a target row (the frontier kernel) and every target
# against every source (the dense direct-sum front-ends below) evaluate the
# same expressions, on contribution arrays or on a broadcast grid.
# ---------------------------------------------------------------------------

def _plummer_weight(r2, gm, eps2, out=None):
    """Per-pair ``gm / (r2 + eps2)^{3/2}``, zero where ``r2`` is (into
    ``out``, if given).  ``r2`` becomes ``r2 + eps2``."""
    zero = r2 == 0.0
    r2 += eps2
    with np.errstate(divide="ignore", invalid="ignore"):
        # rs * sqrt(rs) instead of rs ** 1.5: sqrt and multiply are
        # correctly rounded everywhere, so a scalar loop over the pairs
        # (the golden tests) agrees bit-for-bit; pow's SIMD path does not.
        w = np.sqrt(r2, out=out)
        w *= r2
        np.divide(gm, w, out=w)
    w[zero] = 0.0
    return w


def _inverse_distance(r2, eps2):
    """Per-pair ``1 / sqrt(r2 + eps2)``, zero where ``r2`` is not positive;
    computed in ``r2``'s place."""
    positive = r2 > 0.0
    r2 += eps2
    np.divide(1.0, np.sqrt(r2, out=r2), out=r2, where=positive)
    r2[~positive] = 0.0
    return r2


def accumulate_point_masses(out, layout, target, source, gm, softening=0.0, quad=None,
                            G=1.0):
    """Add to each target row the point masses of its interaction list:
    the acceleration if ``out`` is ``(n, 3)``, the potential if it is
    ``(n,)``.  Items are Plummer point masses, or node centroids with their
    quadrupole terms when ``quad`` holds each item's traceless quadrupole
    tensor about it (see :func:`symmetric_components`; the potential stays
    the monopole's).

    ``target`` holds the positions of ``out``'s rows; ``source``, ``gm`` (G
    times the mass) and ``quad`` are the item tables, one entry per list
    item.  Positions are ``(n, 3)`` arrays or coordinate columns.  No input
    is written: every per-contribution array is the call's own."""
    eps2 = float(softening * softening)
    s, target = [c[layout.item_of] for c in components(source)], components(target)
    if isinstance(layout.rows, slice):    # one list: views of the caller's tables
        (d, r2), spare = _separation(s, [c[layout.rows, None] for c in target]), None
    else:                                 # d into the item gathers, |d|² into the replays
        t = [layout.replay(c) for c in target]
        d = [np.subtract(sj, tj, out=sj) for sj, tj in zip(s, t)]
        r2, spare = _dot(d, d, out=t[0], spare=t[1]), t[2]
    gm = gm[layout.item_of]
    if out.ndim == 1:      # -gm / sqrt(r2 + eps2), in r2's place
        d = [np.negative(np.multiply(_inverse_distance(r2, eps2), gm, out=r2), out=r2)]
    elif quad is not None:
        d = _quadrupole_terms(d, np.add(r2, eps2, out=r2), gm, float(G),
                              [q[layout.item_of] for q in symmetric_components(quad)])
    else:
        w = _plummer_weight(r2, gm, eps2, out=spare)
        for dj in d:
            dj *= w
    _add_row_sums(out, layout, d)


# ---------------------------------------------------------------------------
# Gravity: dense direct summation (the paper's ``gravExact`` over whole
# arrays): every target against every source on a broadcast (nt, ns) grid,
# the per-pair values being those of the frontier kernels above.  A row's
# sum over its sources is numpy's pairwise reduction, so a direct sum and a
# tree walk that opens everything agree to summation order, not in bits.
# ---------------------------------------------------------------------------

def _columns(a):
    """``a`` — ``(n, 3)`` rows, one bare ``(3,)`` point, or coordinate
    columns — as a contiguous ``(3, n)`` array."""
    return np.ascontiguousarray(np.atleast_2d(a).T if isinstance(a, np.ndarray) else a)


def _dense_separation(targets, sources):
    """:func:`_separation` of every (target, source) pair: ``d`` stacked
    ``(3, nt, ns)``, ``|d|²`` ``(nt, ns)``."""
    d = _columns(sources)[:, None, :] - _columns(targets)[:, :, None]
    return d, _dot(d, d)


def pairwise_accel(targets, sources, source_mass, G=1.0, softening=0.0) -> np.ndarray:
    """Exact accelerations ``(nt, 3)`` of ``targets`` due to ``sources``
    (each ``(n, 3)`` or coordinate columns); zero-distance pairs (a
    particle and itself) contribute nothing."""
    d, r2 = _dense_separation(targets, sources)
    d *= _plummer_weight(r2, float(G) * np.asarray(source_mass, dtype=np.float64),
                         float(softening * softening))
    return np.ascontiguousarray(d.sum(axis=2).T)


def pairwise_potential(targets, sources, source_mass, G=1.0, softening=0.0) -> np.ndarray:
    """Exact potential at each target: ``φ_i = -G Σ_j m_j / sqrt(r² + ε²)``."""
    _, r2 = _dense_separation(targets, sources)
    mass = np.asarray(source_mass, dtype=np.float64)
    return (-float(G) * mass * _inverse_distance(r2, float(softening * softening))).sum(axis=1)


# ---------------------------------------------------------------------------
# Gravity: the quadrupole terms of node items.
#
#   a = G [ m d / r³ − Q·d / r⁵ + 5/2 (dᵀQd) d / r⁷ ],  r² = |d|² + ε²,
# with Q = Σ m (3 ddᵀ − |d|² I) about the node centroid (Dehnen 2002; the
# paper's "higher order multipole expansion"), written out by coordinate in
# one fixed operation order (no matmul or einsum, whose summation order is
# the BLAS's business) so that the scalar golden loop agrees bit-for-bit.
# ---------------------------------------------------------------------------

def _quadrupole_terms(d, r2, gm, G, quad):
    """Per contribution: a node item's monopole + quadrupole acceleration,
    ``d`` by coordinate, ``r2 = |d|² + ε²``."""
    xx, xy, xz, yy, yz, zz = quad
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r2 = np.where(r2 > 0.0, 1.0 / r2, 0.0)
    inv_r3 = inv_r2 * np.sqrt(inv_r2)
    inv_r5 = inv_r3 * inv_r2
    inv_r7 = inv_r5 * inv_r2
    qd = (_dot((xx, xy, xz), d), _dot((xy, yy, yz), d), _dot((xz, yz, zz), d))
    mono = gm * inv_r3
    stretch = 2.5 * (_dot(d, qd) * inv_r7)
    return [mono * dj + G * (stretch * dj - qdj * inv_r5) for dj, qdj in zip(d, qd)]


# ---------------------------------------------------------------------------
# Neighbour search: the one squared-distance kernel, and the segmented
# k-nearest merge of the up-and-down engine's leaf pairs.
#
# Every neighbour distance in the repo — kNN and ball visitors and their
# brute-force references — is ``pair_dist_sq``: differences by coordinate,
# squares summed x, y, z.  Two codes that agree on the operation order agree
# on the bits, so "equal to brute force" can be asserted with ``atol=0``.
#
# The merge keeps every row in ``(dist, index)`` order but sorts on one key:
# one pass over all pairs keeps the candidates at or below a row's k-th
# distance (about a quarter of them), and each improved row is argsorted by
# distance alone.  Only a row whose k + 1 nearest hold two equal finite
# distances is re-sorted by ``(dist, index)`` — random positions almost
# never tie, a lattice or a duplicated set does, and there the fallback is
# what makes the answer canonical.
# ---------------------------------------------------------------------------

def _rows_of(positions, rows):
    """``positions[rows]`` by coordinate.  SoA columns (an O(N) copy that a
    walk over every particle makes once) are gathered from; an ``(n, 3)``
    array is gathered first and split after, O(rows)."""
    if isinstance(positions, np.ndarray):
        return list(np.moveaxis(positions[rows], -1, 0))
    return [c[rows] for c in positions]


def pair_dist_sq(positions, rows_a, rows_b, target_positions=None):
    """Squared distance of each ``(a, b)`` particle-row pair.  The row
    arrays broadcast against each other, so ``rows_a[:, None]`` against
    ``rows_b[None, :]`` is the all-pairs matrix.  ``rows_a`` index
    ``target_positions`` when the targets are not rows of ``positions``."""
    targets = positions if target_positions is None else target_positions
    return _separation(_rows_of(targets, rows_a), _rows_of(positions, rows_b))[1]


def merge_nearest(dist_sq, index, positions, tstart, tend, sstart, send,
                  target_positions=None):
    """Merge candidate neighbours into running k-nearest rows.

    Pair ``p`` offers the particles ``[sstart[p], send[p])`` to every target
    row in ``[tstart[p], tend[p])``; pairs are target-major, so the pairs of
    one target bucket are adjacent.  ``dist_sq``/``index`` are the ``(N, k)``
    running lists, every row ascending in ``(dist_sq, index)`` with unused
    slots ``(inf, -1)`` — an invariant this function keeps.  No row meets a
    candidate twice.  Target rows are rows of ``positions`` and never meet
    their own particle — unless ``target_positions`` says where they are
    instead (query points: nothing to exclude).

    Selection and order are lexicographic in ``(dist_sq, index)``, so the
    result is the k smallest such tuples seen so far: a function of the
    candidate *set*, not of how a caller batches pairs into calls.

    * **Enter test.**  Only a candidate at or below a row's k-th distance
      can enter it: that is the one pass over every pair.  The tie at the
      k-th distance (a smaller index wins) and the row's own particle are
      checked on the few that pass.
    * **Merge.**  The entering candidates are grouped by row (one-row
      targets already are: a target's pairs are adjacent) and laid into one
      padded matrix next to the rows they improve; each row is sorted once,
      by distance alone, and keeps its first k.  Where the first ``k + 1``
      sorted distances are all different the distance order *is* the
      ``(dist_sq, index)`` order — and the ``k + 1``-th place is what tells
      whether a tie straddles the cut at k.  A row with two equal finite
      distances there is re-sorted by ``(dist_sq, index)``.  Equal
      ``inf``s need nothing: every unused slot is ``(inf, -1)``.

    Returns ``(first, radius_sq)``: the position of each target bucket's
    first pair, and the largest k-th distance among that bucket's rows.
    """
    from ..core.util import ranges_to_indices

    k = dist_sq.shape[1]
    t_rows, s_rows = expand_pair_products(tstart, tend, sstart, send)
    d2 = pair_dist_sq(positions, t_rows, s_rows, target_positions)
    kth_d, kth_i = dist_sq[:, -1], index[:, -1]    # 1-D views gather faster
    near = np.flatnonzero(d2 <= kth_d[t_rows])
    t_in, s_in = t_rows[near], s_rows[near]
    enters = (d2[near] < kth_d[t_in]) | (s_in < kth_i[t_in])
    if target_positions is None:
        enters &= t_in != s_in
    entering = near[enters]
    if (tend - tstart > 1).any():                  # a row's pairs repeat it
        entering = entering[np.argsort(t_rows[entering], kind="stable")]
    if entering.size:
        t_in = t_rows[entering]
        bounds = _run_bounds(t_in)
        starts, per_row = bounds[:-1], bounds[1:] - bounds[:-1]
        rows = t_in[starts]
        local = np.repeat(np.arange(rows.size), per_row)
        column = k + np.arange(t_in.size) - np.repeat(starts, per_row)
        d_all = np.full((rows.size, k + int(per_row.max())), np.inf)
        i_all = np.full(d_all.shape, -1, dtype=np.int64)
        d_all[:, :k], i_all[:, :k] = dist_sq[rows], index[rows]
        d_all[local, column], i_all[local, column] = d2[entering], s_rows[entering]
        each = np.arange(rows.size)[:, None]
        keep = np.argsort(d_all, axis=1)[:, :k + 1]
        d_keep = d_all[each, keep]
        tie = (d_keep[:, 1:] == d_keep[:, :-1]) & (d_keep[:, 1:] < np.inf)
        if (tied := np.flatnonzero(tie.any(axis=1))).size:
            keep[tied, :k] = np.lexsort((i_all[tied], d_all[tied]), axis=1)[:, :k]
        dist_sq[rows], index[rows] = d_keep[:, :k], i_all[each, keep[:, :k]]
    first = _run_bounds(tstart)[:-1]
    start, n = tstart[first], tend[first] - tstart[first]
    return first, np.maximum.reduceat(kth_d[ranges_to_indices(start, start + n)],
                                      np.cumsum(n) - n)
