"""The up-and-down engine's round/cut rule: every target bucket's walk
advances together with all the others on one pair frontier, the frontier is
cut between targets against the batched engine's budgets — and nothing but
time and memory changes.

The oracle is the per-target walk in ``tests/harness/updown_reference.py``:
for any segment/slice budget from 1 to infinity, any chunking and any
permutation of the targets, the engine must leave the same bytes in the
visitor, the same interaction counts and the same per-target interaction
lists.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.knn import KNNVisitor
from repro.core import TraversalStats, get_traverser
from repro.core.traverser import InteractionLists
from repro.particles import clustered_clumps, uniform_cube
from repro.trees import build_tree

from tests.harness.differential import (INTERACTION_KEYS, ScalarCountInRadiusVisitor,
                                        list_bytes)
from tests.harness.updown_reference import reference_up_and_down
from tests.test_segments import UNBOUNDED, budgets, set_budgets

GENERATORS = {"uniform": uniform_cube, "clustered": clustered_clumps}


def knn_state(v):
    return v.dist_sq.tobytes(), v.index.tobytes(), v.radius_sq.tobytes()


def walk(traverse, tree, make_visitor, chunks):
    visitor, lists, stats = make_visitor(tree), InteractionLists(), TraversalStats()
    for chunk in chunks:
        stats.merge(traverse(tree, visitor, chunk, lists))
    counts = stats.as_dict()
    return visitor, {k: counts[k] for k in INTERACTION_KEYS}, list_bytes(lists)


class TestRoundsChangeNoBits:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(n=st.integers(60, 400), seed=st.integers(0, 10_000), bucket=st.integers(2, 16),
           kind=st.sampled_from(sorted(GENERATORS)),
           tree_type=st.sampled_from(["oct", "kd", "longest"]),
           k=st.integers(1, 12), pairs=budgets, rows=budgets, data=st.data())
    def test_any_budget_any_chunking_equals_the_per_target_walk(
            self, monkeypatch, n, seed, bucket, kind, tree_type, k, pairs, rows, data):
        tree = build_tree(GENERATORS[kind](n, seed=seed), tree_type=tree_type,
                          bucket_size=bucket)
        leaves = tree.leaf_indices
        order = np.asarray(data.draw(st.permutations(range(len(leaves)))))
        n_cuts = data.draw(st.integers(0, min(4, len(leaves) - 1)))
        at = sorted(data.draw(st.lists(st.integers(1, len(leaves) - 1), min_size=n_cuts,
                                       max_size=n_cuts, unique=True))) if n_cuts else []
        chunks = np.split(leaves[order], at)
        engine = get_traverser("up-and-down").traverse

        def knn(t):
            return KNNVisitor(t, k)

        ref, ref_counts, ref_lists = walk(reference_up_and_down, tree, knn, [leaves])
        set_budgets(monkeypatch, pairs, rows)
        got, counts, lists = walk(engine, tree, knn, chunks)
        assert knn_state(got) == knn_state(ref)
        assert counts == ref_counts
        assert lists == ref_lists

    @pytest.mark.parametrize("tree_type", ["oct", "kd", "longest"])
    def test_scalar_visitor_through_the_default_hooks(self, monkeypatch, tree_type):
        """A visitor with no pair hooks and no ``done_targets`` of its own
        (every pair and every round goes through the base class's scalar
        defaults) stops each target where the per-target walk stops it."""
        tree = build_tree(clustered_clumps(300, seed=2), tree_type=tree_type, bucket_size=8)

        class StopsWhenCrowded(ScalarCountInRadiusVisitor):
            def done(self, target):
                return bool(self.counts[target.pslice].min() >= 3)

        def make(t):
            return StopsWhenCrowded(t, 0.05)

        engine = get_traverser("up-and-down").traverse
        ref, ref_counts, ref_lists = walk(reference_up_and_down, tree, make,
                                          [tree.leaf_indices])
        set_budgets(monkeypatch, 7, 5)
        got, counts, lists = walk(engine, tree, make,
                                  np.array_split(tree.leaf_indices[::-1], 3))
        assert got.counts.tobytes() == ref.counts.tobytes()
        assert counts == ref_counts and lists == ref_lists
        # the early exit did prune: without it every walk climbs to the root
        _, full_counts, _ = walk(engine, tree, lambda t: ScalarCountInRadiusVisitor(t, 0.05),
                                 [tree.leaf_indices])
        assert counts["opens"] < full_counts["opens"]

    def test_a_bucket_heavier_than_the_budget_runs_in_one_slice(self, monkeypatch):
        """One target's own candidate list cannot be cut: with a row budget
        below any bucket's work every ``leaf_pairs`` call is exactly one
        target, oversized, and the bytes still do not move."""
        tree = build_tree(uniform_cube(400, seed=3), tree_type="oct", bucket_size=16)
        counts = tree.pend - tree.pstart
        calls = []

        class Spy(KNNVisitor):
            def leaf_pairs(self, tree, sources, targets):
                calls.append((np.unique(targets).size,
                              int((counts[targets] * counts[sources]).sum())))
                super().leaf_pairs(tree, sources, targets)

        ref, ref_counts, ref_lists = walk(reference_up_and_down, tree,
                                          lambda t: KNNVisitor(t, 8), [tree.leaf_indices])
        set_budgets(monkeypatch, 2, 3)
        got, got_counts, lists = walk(get_traverser("up-and-down").traverse, tree,
                                      lambda t: Spy(t, 8), [tree.leaf_indices])
        assert knn_state(got) == knn_state(ref)
        assert got_counts == ref_counts and lists == ref_lists
        assert any(work > 3 for _, work in calls)       # the uncuttable case did occur
        assert all(n_targets == 1 for n_targets, work in calls if work > 3)


class TestWorkingSetIsBounded:
    """The search's temporaries are a few slices of ``SLICE_ROWS`` rows plus
    one round's root frontier (a handful of integers per bucket), not a
    level of the whole tree: ~4 MiB at N = 8 000 and ~5 MiB at N = 20 000."""

    BOUND = 8 * 2**20

    @staticmethod
    def peak_bytes(tree):
        engine = get_traverser("up-and-down")
        # one bucket first: allocator priming is not the search's temporaries
        engine.traverse(tree, KNNVisitor(tree, 32), tree.leaf_indices[:1])
        visitor = KNNVisitor(tree, 32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.traverse(tree, visitor)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_uniform_cube_8k(self, monkeypatch):
        tree = build_tree(uniform_cube(8_000, seed=5), tree_type="oct", bucket_size=16)
        bounded = self.peak_bytes(tree)
        assert bounded < self.BOUND
        set_budgets(monkeypatch, UNBOUNDED, UNBOUNDED)
        assert self.peak_bytes(tree) > 10 * bounded

    def test_clustered_clumps_20k(self):
        tree = build_tree(clustered_clumps(20_000, seed=5), tree_type="oct", bucket_size=16)
        assert self.peak_bytes(tree) < self.BOUND
