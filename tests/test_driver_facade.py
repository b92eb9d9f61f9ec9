"""Partitions facade variants, driver recorders, and misc coverage."""

import numpy as np
import pytest

from repro.apps.gravity import GravityDriver
from repro.core import Configuration, IterationObserver, Recorder
from repro.particles import clustered_clumps


class CountingRecorder(Recorder):
    def __init__(self):
        self.opens = 0
        self.nodes = 0
        self.leaves = 0

    def on_open_pairs(self, tree, sources, targets):
        self.opens += len(sources)

    def on_node_pairs(self, tree, sources, targets):
        self.nodes += len(sources)

    def on_leaf_pairs(self, tree, sources, targets):
        self.leaves += len(sources)


class OffersRecorder(IterationObserver):
    """Offers one recorder to the traversals of the iterations in ``when``."""

    def __init__(self, recorder, when):
        self.rec, self.when = recorder, when

    def recorder(self, driver, iteration):
        return self.rec if iteration in self.when else None


def make_driver(**extra):
    class Main(GravityDriver):
        def create_particles(self, config):
            return clustered_clumps(900, seed=25)

    kwargs = dict(num_iterations=1, num_partitions=4, num_subtrees=4)
    kwargs.update(extra)
    return Main(Configuration(**kwargs), theta=0.7, softening=1e-3)


class TestPartitionsFacade:
    def test_per_bucket_traverser_matches_default(self):
        d1 = make_driver()
        d1.run()
        acc_default = d1.tree.particles.scatter_to_input_order(d1.accelerations)
        d2 = make_driver(traverser="per-bucket")
        d2.run()
        acc_basic = d2.tree.particles.scatter_to_input_order(d2.accelerations)
        assert np.allclose(acc_default, acc_basic, rtol=1e-9)

    def test_start_up_and_down_runs(self):
        class UpDownMain(GravityDriver):
            def create_particles(self, config):
                return clustered_clumps(400, seed=26)

            def traversal(self, iteration):
                self.partitions().start_up_and_down(self._visitor)
                self.accelerations = self._visitor.accel

        d = UpDownMain(
            Configuration(num_iterations=1, num_partitions=4, num_subtrees=4),
            theta=0.4, softening=1e-3,
        )
        d.run()
        assert np.any(d.accelerations != 0)

    def test_start_dual_runs(self):
        class DualMain(GravityDriver):
            def create_particles(self, config):
                return clustered_clumps(400, seed=27)

            def traversal(self, iteration):
                self.partitions().start_dual(self._visitor)
                self.accelerations = self._visitor.accel

        d = DualMain(
            Configuration(num_iterations=1, num_partitions=4, num_subtrees=4),
            theta=0.4, softening=1e-3,
        )
        d.run()
        assert d.last_stats.leaf_interactions > 0

    @pytest.mark.parametrize("app", ["sph", "knn"])
    def test_up_and_down_apps_hand_the_balancer_measured_load(self, app, monkeypatch):
        """kNN and SPH search through ``partitions()``, so the iteration's
        load recorder sees their pairs and re-balancing reads real work."""
        from repro.apps import make_driver as make_app
        from repro.core import driver as core_driver

        handed = []
        strategies = dict(core_driver.LB_STRATEGIES)
        for name, strategy in strategies.items():
            def spy(particles, load, n, strategy=strategy):
                handed.append(float(load.sum()))
                return strategy(particles, load, n)

            strategies[name] = spy
        monkeypatch.setattr(core_driver, "LB_STRATEGIES", strategies)
        d = make_app(app, config={"num_iterations": 2, "lb_period": 1, "num_partitions": 4},
                     dataset={"kind": "clumps", "n": 600, "seed": 3})
        d.run()
        assert len(handed) == 2 and min(handed) > 0
        assert d.reports[1].rebalanced

    def test_decomposition_exposed(self):
        d = make_driver()
        d.run()
        assert d.partitions().decomposition is d.decomposition


class TestDriverRecorder:
    def test_observer_recorder_observes_traversal(self):
        d = make_driver()
        rec = CountingRecorder()
        d.observe(OffersRecorder(rec, when={0}))
        d.run()
        stats = d.reports[0].stats
        assert (rec.opens, rec.nodes, rec.leaves) == (
            stats.opens, stats.node_interactions, stats.leaf_interactions)
        assert rec.nodes > 0 and rec.leaves > 0

    def test_recorder_can_be_cleared(self):
        d = make_driver(num_iterations=2)
        rec = CountingRecorder()
        d.observe(OffersRecorder(rec, when={0}))
        d.run()
        assert rec.opens == d.reports[0].stats.opens
        assert d.reports[1].stats.opens > 0


class TestFoFOnPrebuiltTree:
    def test_accepts_tree(self):
        from repro.apps.fof import friends_of_friends
        from repro.trees import build_tree

        p = clustered_clumps(500, seed=28)
        tree = build_tree(p, tree_type="kd", bucket_size=8)
        res = friends_of_friends(tree, linking_length=0.04)
        assert res.group_sizes.sum() == 500


class TestFlush:
    def test_flush_period_discards_lb_assignment(self):
        """With flush_period=1 every iteration re-decomposes from scratch,
        so LB assignments never take effect."""
        d = make_driver(num_iterations=3, lb_period=1, flush_period=1)
        d.run()
        assert not any(r.rebalanced for r in d.reports)

    def test_without_flush_lb_applies(self):
        d = make_driver(num_iterations=3, lb_period=1)
        d.run()
        assert any(r.rebalanced for r in d.reports)

    def test_imbalance_threshold_triggers_flush(self):
        """A tiny flush_imbalance threshold forces a re-decomposition every
        iteration (count-based SFC), again suppressing LB carryover."""
        d = make_driver(num_iterations=3, lb_period=1)
        d.config.extra["flush_imbalance"] = 1.0  # everything is "imbalanced"
        d.run()
        assert not any(r.rebalanced for r in d.reports)


class TestTreeValidationCatchesCorruption:
    def test_detects_broken_parent_pointer(self):
        from repro.trees import build_tree, check_tree_invariants

        tree = build_tree(clustered_clumps(300, seed=30), tree_type="kd", bucket_size=8)
        tree.parent[tree.first_child[0]] = 0 if tree.parent[tree.first_child[0]] != 0 else 1
        tree.parent[int(tree.first_child[0])] = 99  # corrupt
        with pytest.raises(AssertionError):
            check_tree_invariants(tree)

    def test_detects_range_gap(self):
        from repro.trees import build_tree, check_tree_invariants

        tree = build_tree(clustered_clumps(300, seed=31), tree_type="kd", bucket_size=8)
        tree.pend[int(tree.first_child[0])] -= 1  # gap between siblings
        with pytest.raises(AssertionError):
            check_tree_invariants(tree)

    def test_detects_duplicate_keys(self):
        from repro.trees import build_tree, check_tree_invariants

        tree = build_tree(clustered_clumps(300, seed=32), tree_type="kd", bucket_size=8)
        tree.key[1] = tree.key[2]
        with pytest.raises(AssertionError):
            check_tree_invariants(tree)
