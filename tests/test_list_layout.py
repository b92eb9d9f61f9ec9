"""The gravity kernels' interaction-list layout and its input contract.

``list_layout`` describes one call's contributions by their target rows
(each once, with its list length) and their list items; a target row's
coordinates are replayed — repeated its list length — rather than gathered
through a per-contribution row index.  These tests pin that the replay is
the gather it replaces, that every row's list is its pairs' items in pair
order, and that ``accumulate_point_masses`` writes only its output: its
per-contribution arrays are its own, also where a one-list call's gathers
are views of the caller's tables.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.kernels import (accumulate_point_masses, components, list_layout,
                                 symmetric_components)


def reference_lists(targets, tstart, tend, n_items):
    """``{row: [item, ...]}``: each row's items, its pairs in pair order and
    each pair's items in order — the lists the layout must lay out."""
    first = np.cumsum(n_items) - n_items
    lists = {}
    for p in range(targets.size):
        for row in range(tstart[p], tend[p]):
            lists.setdefault(row, []).extend(range(first[p], first[p] + n_items[p]))
    return lists


def contributions(layout, n_items_total):
    """``(row_of, item_of)`` per contribution, read off ``layout``: one
    list's broadcast block expanded, row-major."""
    if isinstance(layout.rows, slice):
        rows = np.arange(layout.rows.start, layout.rows.stop)
        return np.repeat(rows, layout.counts), np.tile(np.arange(n_items_total), rows.size)
    return np.repeat(layout.rows, layout.counts), layout.item_of


@st.composite
def slices(draw):
    """A call's pairs: targets own disjoint row ranges and come in runs — in
    ascending order or not, and a target may come back in a later run."""
    n_targets = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n_targets, max_size=n_targets))
    edges = np.concatenate(([0], np.cumsum(sizes)))
    runs = draw(st.lists(st.tuples(st.integers(0, n_targets - 1), st.integers(1, 4)),
                         min_size=1, max_size=10))
    targets = np.repeat([t for t, _ in runs], [n for _, n in runs]).astype(np.int64)
    items = draw(st.one_of(st.none(), st.lists(st.integers(1, 6), min_size=targets.size,
                                               max_size=targets.size)))
    n_items = None if items is None else np.array(items, dtype=np.int64)
    return targets, edges[targets], edges[targets + 1], n_items


class TestReplay:
    @settings(max_examples=300, deadline=None)
    @given(call=slices(), seed=st.integers(0, 2**16))
    def test_replayed_rows_are_the_gathered_rows(self, call, seed):
        """Each row once, its list in pair order; the replayed target
        column equals ``column[np.repeat(rows, seg)]``, the gather through
        a per-contribution row index, byte for byte."""
        targets, tstart, tend, n_items = call
        layout = list_layout(*call)
        n_items = np.ones(targets.size, dtype=np.int64) if n_items is None else n_items
        lists = reference_lists(targets, tstart, tend, n_items)
        row_of, item_of = contributions(layout, int(n_items.sum()))
        rows = row_of[np.asarray(layout.starts)]
        assert sorted(rows.tolist()) == sorted(lists) and len(set(rows.tolist())) == rows.size
        bounds = np.append(layout.starts, row_of.size)
        for j, row in enumerate(rows.tolist()):
            assert item_of[bounds[j]:bounds[j + 1]].tolist() == lists[row]
            assert (row_of[bounds[j]:bounds[j + 1]] == row).all()
        column = np.random.default_rng(seed).standard_normal(int(tend.max()) + 3)
        assert layout.replay(column).tobytes() == column[row_of].tobytes()


class TestInputsAreNotWritten:
    """Every input table comes back byte-unchanged, whichever branch runs."""

    @staticmethod
    def _calls():
        """(name, targets, tstart, tend, n_items) — each layout shape."""
        one = np.zeros(1, dtype=np.int64)
        return [
            ("one list, many rows", np.zeros(3, dtype=np.int64), np.full(3, 2), np.full(3, 9),
             np.array([2, 1, 4])),
            ("1 x 1 list", one, one + 4, one + 5, one + 1),
            ("1 x n list", one, one + 4, one + 5, one + 6),
            ("diagonal", np.arange(12), np.arange(12), np.arange(12) + 1, np.ones(12, int)),
            # target 0 in two non-adjacent runs: the grouping path
            ("grouped", np.array([0, 0, 1, 2, 0, 1]), np.array([0, 0, 3, 5, 0, 3]),
             np.array([3, 3, 5, 9, 3, 5]), np.array([1, 3, 2, 1, 2, 4])),
        ]

    def test_accumulate_writes_only_its_output(self):
        rng = np.random.default_rng(5)
        for name, targets, tstart, tend, n_items in self._calls():
            n_list = int(n_items.sum())
            target = rng.random((12, 3))
            source = rng.random((n_list, 3))
            if n_list > 1:
                source[0] = target[tstart[0]]           # a zero-distance pair
            gm = rng.random(n_list)
            a = rng.random((n_list, 3, 3)) - 0.5
            quad = a + a.transpose(0, 2, 1)
            for form in (np.asarray, components):
                inputs = {"target": form(target), "source": form(source), "gm": gm,
                          "quad": quad if form is np.asarray else symmetric_components(quad)}
                before = {k: [np.array(c, copy=True) for c in
                              (v if isinstance(v, tuple) else [v])] for k, v in inputs.items()}
                for out, q in ((np.zeros((12, 3)), None), (np.zeros(12), None),
                               (np.zeros((12, 3)), inputs["quad"])):
                    layout = list_layout(targets, tstart, tend, n_items)
                    accumulate_point_masses(out, layout, inputs["target"], inputs["source"],
                                            inputs["gm"], 1e-3, q, 1.3)
                    assert np.isfinite(out).all() and out.any(), name
                    for key, value in inputs.items():
                        now = value if isinstance(value, tuple) else [value]
                        assert all(b.tobytes() == c.tobytes()
                                   for b, c in zip(before[key], now)), (name, key)
