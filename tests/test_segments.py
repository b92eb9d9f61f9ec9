"""The batched engine's cut rule: a target-major pair frontier may be cut
between two targets anywhere, and nothing but time and memory changes.

``SEGMENT_PAIRS`` and ``SLICE_ROWS`` (:mod:`repro.core.batched`) are
constants rather than options *because* of the properties pinned here:
every budget from 1 to infinity, under any chunking of the targets, yields
the same bytes and the same interaction counts as the whole-frontier
reference; and the default budgets bound the traversal's temporaries by a
constant, not by N.
"""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.gravity import GravityVisitor, compute_centroid_arrays
from repro.core import TraversalStats, batched, get_traverser
from repro.core.batched import cut_at_targets
from repro.particles import clustered_clumps, keplerian_disk
from repro.trees import build_tree

from tests.harness.differential import INTERACTION_KEYS

UNBOUNDED = 2**62

budgets = st.one_of(st.integers(1, 64), st.integers(65, 5_000), st.just(UNBOUNDED))


def set_budgets(monkeypatch, pairs, rows):
    monkeypatch.setattr(batched, "SEGMENT_PAIRS", pairs)
    monkeypatch.setattr(batched, "SLICE_ROWS", rows)


def run_batched(tree, arrays, chunks, with_potential, visitor_type=GravityVisitor):
    visitor = visitor_type(tree, arrays, softening=1e-3, with_potential=with_potential)
    stats = TraversalStats()
    engine = get_traverser("batched")
    for chunk in chunks:
        stats.merge(engine.traverse(tree, visitor, chunk))
    counts = stats.as_dict()
    return visitor, {k: counts[k] for k in INTERACTION_KEYS}


class TestCutAtTargets:
    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 9)),
                         min_size=1, max_size=30),
           budget=st.integers(1, 60))
    def test_pieces_are_whole_targets_within_budget(self, runs, budget):
        targets = np.repeat(np.arange(len(runs)), [n for n, _ in runs])
        weights = np.concatenate([np.full(n, w) for n, w in runs])
        cuts = cut_at_targets(targets, weights, budget)
        assert cuts[0] == 0 and cuts[-1] == targets.size
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        for a, b in zip(cuts, cuts[1:]):
            # a cut never separates two pairs of one target
            assert a == 0 or targets[a - 1] != targets[a]
            piece = weights[a:b].sum()
            assert piece <= budget or np.unique(targets[a:b]).size == 1
            # greedy: the next target would not have fitted
            if b < targets.size:
                nxt = weights[b:][targets[b:] == targets[b]].sum()
                assert piece + nxt > budget

    def test_within_budget_is_one_piece(self):
        assert cut_at_targets(np.array([3, 3, 5]), np.array([1, 1, 1]), 3) == [0, 3]


class TestSegmentationChangesNoBits:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(n=st.integers(60, 500), seed=st.integers(0, 10_000),
           bucket=st.integers(2, 16), tree_type=st.sampled_from(["oct", "kd"]),
           leg=st.sampled_from(["monopole", "quadrupole", "potential",
                                "quadrupole+potential"]),
           pairs=budgets, rows=budgets, data=st.data())
    def test_any_budget_any_chunking_equals_whole_frontier(
            self, monkeypatch, n, seed, bucket, tree_type, leg, pairs, rows, data):
        tree = build_tree(clustered_clumps(n, seed=seed), tree_type=tree_type,
                          bucket_size=bucket)
        arrays = compute_centroid_arrays(tree, theta=0.6,
                                         with_quadrupole="quadrupole" in leg)
        with_potential = "potential" in leg
        leaves = tree.leaf_indices

        set_budgets(monkeypatch, UNBOUNDED, UNBOUNDED)
        ref, ref_counts = run_batched(tree, arrays, [leaves], with_potential)

        order = np.asarray(data.draw(st.permutations(range(len(leaves)))))
        n_cuts = data.draw(st.integers(0, min(4, len(leaves) - 1)))
        at = sorted(data.draw(st.lists(st.integers(1, len(leaves) - 1), min_size=n_cuts,
                                       max_size=n_cuts, unique=True))) if n_cuts else []
        chunks = np.split(leaves[order], at)
        set_budgets(monkeypatch, pairs, rows)
        got, counts = run_batched(tree, arrays, chunks, with_potential)

        assert counts == ref_counts
        assert got.accel.tobytes() == ref.accel.tobytes()
        if with_potential:
            assert got.potential.tobytes() == ref.potential.tobytes()

    def test_a_bucket_heavier_than_both_budgets_runs_in_one_slice(self, monkeypatch):
        """One target's own pair list cannot be cut: with budgets far below
        any single bucket's work, every segment and every slice is exactly
        one target, oversized, and the bytes still do not move."""
        tree = build_tree(clustered_clumps(400, seed=3), tree_type="oct", bucket_size=16)
        arrays = compute_centroid_arrays(tree, theta=0.5)
        calls = {"open": [], "node": [], "leaf": []}
        counts = tree.pend - tree.pstart

        class Spy(GravityVisitor):
            def open_pairs(self, tree, sources, targets):
                # (the root level is one pair per target: the caller's own
                # ``targets`` array, not an expansion)
                if sources[0] != tree.root:
                    calls["open"].append((np.unique(targets).size, len(sources)))
                return super().open_pairs(tree, sources, targets)

            def node_pairs(self, tree, sources, targets):
                calls["node"].append((np.unique(targets).size, counts[targets].sum()))
                super().node_pairs(tree, sources, targets)

            def leaf_pairs(self, tree, sources, targets):
                calls["leaf"].append((np.unique(targets).size,
                                      (counts[targets] * counts[sources]).sum()))
                super().leaf_pairs(tree, sources, targets)

        set_budgets(monkeypatch, UNBOUNDED, UNBOUNDED)
        ref, ref_counts = run_batched(tree, arrays, [tree.leaf_indices], True)
        set_budgets(monkeypatch, 2, 3)
        got, got_counts = run_batched(tree, arrays, [tree.leaf_indices], True, Spy)

        assert got_counts == ref_counts
        assert got.accel.tobytes() == ref.accel.tobytes()
        assert got.potential.tobytes() == ref.potential.tobytes()
        for kind, budget in (("open", 2), ("node", 3), ("leaf", 3)):
            oversized = [work for n_targets, work in calls[kind] if work > budget]
            assert oversized, kind      # the uncuttable case did occur
            assert all(n_targets == 1 for n_targets, work in calls[kind]
                       if work > budget), kind


class TestWorkingSetIsBounded:
    """ISSUE 14: the frontier stack holds views of split parents and every
    kernel temporary is one slice long, so the traversal's peak temporary
    footprint is a constant of the budgets — ~3.1 MiB here at N = 5 000
    and at N = 20 000 — where one whole-frontier level of the 256-leaf disk
    tree alone is > 100 MiB."""

    BOUND = 8 * 2**20

    @staticmethod
    def peak_bytes(tree):
        visitor = GravityVisitor(tree, compute_centroid_arrays(tree, theta=0.7),
                                 softening=1e-3)
        engine = get_traverser("batched")
        # one bucket first: the per-visitor tables and the once-per-process
        # allocator priming are not the traversal's temporaries
        engine.traverse(tree, visitor, tree.leaf_indices[:1])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.traverse(tree, visitor)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_clustered_clumps_20k(self):
        tree = build_tree(clustered_clumps(20_000, seed=5), tree_type="oct",
                          bucket_size=16)
        assert self.peak_bytes(tree) < self.BOUND

    def test_keplerian_disk_longest_dim(self, monkeypatch):
        tree = build_tree(keplerian_disk(3_000, seed=5), tree_type="longest",
                          bucket_size=16)
        bounded = self.peak_bytes(tree)
        assert bounded < self.BOUND
        set_budgets(monkeypatch, UNBOUNDED, UNBOUNDED)
        assert self.peak_bytes(tree) > 10 * bounded
