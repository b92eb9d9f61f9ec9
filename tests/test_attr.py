"""Traversal attribution tests (``repro.obs.attr`` + ``repro explain``).

The contract under test, in order of importance:

1. the counter totals agree exactly with :class:`TraversalStats` for both
   traversal engines (the recorder is a per-node *decomposition* of the
   stats, not an independent estimate);
2. the arrays are **bit-identical** across serial/threads/processes at
   workers {1, 2, 4} (fork/absorb in chunk order, integer ``np.add.at``);
3. forks pickle (process backend) and absorb exactly;
4. the profile layer — subtree rollups, dict round-trip, schema
   validation, counter-track export — is faithful to the arrays;
5. the Driver wires it end to end (``observe(Attribution())`` →
   ``IterationReport.attribution`` + ``Attribution.profiles``), including
   per-partition cache-miss attribution.
"""

import json
import pickle

import numpy as np
import pytest

from repro.cache.stats import assign_fetch_groups, fetch_statistics, miss_attribution
from repro.cache.models import WAITFREE
from repro.core import Configuration
from repro.core.observers import Attribution
from repro.core.traverser import InteractionLists, get_traverser
from repro.decomp import SfcDecomposer, decompose
from repro.obs import (
    ATTR_SCHEMA,
    AttributionProfile,
    AttributionRecorder,
    format_chunk_heatmap,
    validate_attribution,
)
from repro.obs.attr import ARRAY_FIELDS, OPEN_COST_NS, PN_COST_NS, PP_COST_NS
from repro.particles.generators import clustered_clumps, uniform_cube
from repro.trees import build_tree

from tests.harness.differential import (
    CountInRadiusVisitor,
    attribution_matrix,
)

ENGINES = ("per-bucket", "transposed")


@pytest.fixture(scope="module")
def small_tree():
    return build_tree(uniform_cube(500, seed=11), tree_type="oct", bucket_size=12)


@pytest.fixture(scope="module")
def clustered_tree():
    return build_tree(clustered_clumps(800, seed=5), tree_type="kd", bucket_size=10)


def _run_serial(tree, engine_name, radius=0.25):
    engine = get_traverser(engine_name)
    visitor = CountInRadiusVisitor(tree, radius)
    rec = AttributionRecorder(tree.n_nodes)
    stats = engine.traverse(tree, visitor, tree.leaf_indices, rec)
    return rec, stats


class TestRecorderCounters:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_totals_decompose_stats(self, small_tree, engine):
        rec, stats = _run_serial(small_tree, engine)
        assert int(rec.visits.sum()) == stats.opens
        assert int(rec.mac_accepts.sum()) == stats.node_interactions
        assert int(rec.leaf_hits.sum()) == stats.leaf_interactions
        assert int(rec.pn_pairs.sum()) == stats.pn_interactions
        assert int(rec.pp_pairs.sum()) == stats.pp_interactions

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bucket_side_mirrors_source_side(self, small_tree, engine):
        rec, _ = _run_serial(small_tree, engine)
        assert int(rec.bucket_pn.sum()) == int(rec.pn_pairs.sum())
        assert int(rec.bucket_pp.sum()) == int(rec.pp_pairs.sum())
        # bucket_visits counts (source, target) MAC tests from the target
        # side; the source side counts the same pairs
        assert int(rec.bucket_visits.sum()) == int(rec.visits.sum())
        # bucket-side arrays only touch leaves
        leaves = set(small_tree.leaf_indices.tolist())
        nonzero = set(np.nonzero(rec.bucket_visits)[0].tolist())
        assert nonzero <= leaves

    def test_engines_attribute_identically(self, small_tree):
        """Per-node attribution is engine-invariant: both engines evaluate
        the same (source node, target bucket) pairs, just batched along
        different axes."""
        a, _ = _run_serial(small_tree, "per-bucket")
        b, _ = _run_serial(small_tree, "transposed")
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_pair_hooks_attribute_identically(self, small_tree):
        """The batched engine's per-level pair arrays — handed whole to the
        recorder, directly or through the driver's ``_MultiRecorder`` — give
        the counters of the transposed schedule's per-node calls."""
        from repro.core.driver import _MultiRecorder

        want, _ = _run_serial(small_tree, "transposed")
        whole, _ = _run_serial(small_tree, "batched")
        multi = AttributionRecorder(small_tree.n_nodes)
        get_traverser("batched").traverse(
            small_tree, CountInRadiusVisitor(small_tree, 0.25), small_tree.leaf_indices,
            _MultiRecorder([multi, InteractionLists()]))
        for got in (whole, multi):
            for name in ARRAY_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_derived_arrays(self, small_tree):
        rec, _ = _run_serial(small_tree, "transposed")
        rejects = rec.mac_rejects()
        assert np.array_equal(rejects + rec.mac_accepts, rec.visits)
        assert (rejects >= 0).all()
        cost = rec.cost_ns()
        assert cost.dtype == np.int64
        expected = (OPEN_COST_NS * rec.visits + PN_COST_NS * rec.pn_pairs
                    + PP_COST_NS * rec.pp_pairs)
        assert np.array_equal(cost, expected)
        assert cost.sum() > 0

    def test_fork_absorb_exact(self, small_tree):
        whole, _ = _run_serial(small_tree, "transposed")
        # run the same traversal split over two target halves via forks
        engine = get_traverser("transposed")
        parent = AttributionRecorder(small_tree.n_nodes)
        leaves = small_tree.leaf_indices
        half = len(leaves) // 2
        for chunk in (leaves[:half], leaves[half:]):
            fork = parent.fork()
            visitor = CountInRadiusVisitor(small_tree, 0.25)
            engine.traverse(small_tree, visitor, chunk, fork)
            parent.absorb(fork)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(parent, name), getattr(whole, name)), name

    def test_absorb_rejects_mismatched_tree(self):
        a, b = AttributionRecorder(8), AttributionRecorder(9)
        with pytest.raises(ValueError):
            a.absorb(b)

    def test_pickle_roundtrip_drops_counts_cache(self, small_tree):
        rec, _ = _run_serial(small_tree, "per-bucket")
        assert rec._counts is not None  # populated by the callbacks
        clone = pickle.loads(pickle.dumps(rec))
        assert clone._counts is None  # rebuilt lazily worker-side
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(clone, name), getattr(rec, name))
        # the clone keeps recording correctly after unpickling
        clone.on_leaf_pairs(small_tree, np.array([small_tree.leaf_indices[0]]),
                            np.array([small_tree.leaf_indices[0]]))
        assert clone.pp_pairs.sum() > rec.pp_pairs.sum()


class TestBackendBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matrix_small(self, small_tree, engine):
        base = attribution_matrix(
            small_tree, engine, lambda t: CountInRadiusVisitor(t, 0.25)
        )
        assert base.visits.sum() > 0

    def test_matrix_clustered_with_decomposition(self, clustered_tree):
        parts = SfcDecomposer().assign(clustered_tree.particles, 4)
        dec = decompose(clustered_tree, parts, n_subtrees=4)
        base = attribution_matrix(
            clustered_tree, "transposed",
            lambda t: CountInRadiusVisitor(t, 0.2),
            decomposition=dec,
        )
        assert base.pp_pairs.sum() > 0


class TestAttributionProfile:
    @pytest.fixture()
    def profile(self, small_tree):
        rec, _ = _run_serial(small_tree, "transposed")
        return AttributionProfile.from_recorder(rec, iteration=0)

    def test_totals_and_rollup(self, small_tree, profile):
        totals = profile.totals()
        assert totals["cost_ns"] == int(profile.arrays["cost_ns"].sum())
        rows = profile.subtree_rollup(small_tree, depth=2, top=5)
        assert 0 < len(rows) <= 5
        # rollup conserves cost: summing over *all* anchors equals the total
        all_rows = profile.subtree_rollup(small_tree, depth=2,
                                          top=small_tree.n_nodes)
        assert sum(r["cost_ns"] for r in all_rows) == totals["cost_ns"]
        # descending cost order, all anchors at/above the cutoff
        costs = [r["cost_ns"] for r in rows]
        assert costs == sorted(costs, reverse=True)
        assert all(r["level"] <= 2 for r in rows)

    def test_dict_roundtrip_and_validation(self, small_tree, profile):
        doc = profile.to_dict(small_tree, depth=3, top=4)
        assert doc["schema"] == ATTR_SCHEMA
        assert validate_attribution(doc) == []
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable
        back = AttributionProfile.from_dict(doc)
        for name, arr in profile.arrays.items():
            assert np.array_equal(back.arrays[name], arr), name

    def test_validation_catches_corruption(self, small_tree, profile):
        doc = profile.to_dict(small_tree)
        doc["arrays"]["visits"][0] += 1  # break accepts+rejects==visits
        assert validate_attribution(doc)
        assert validate_attribution({"schema": "bogus"})

    def test_merge_adds_exactly(self, small_tree):
        rec, _ = _run_serial(small_tree, "transposed")
        a = AttributionProfile.from_recorder(rec)
        b = AttributionProfile.from_recorder(rec)
        merged = AttributionProfile.from_recorder(rec).merge(b)
        assert np.array_equal(merged.arrays["visits"], 2 * a.arrays["visits"])

    def test_counter_events_are_valid_perfetto(self, small_tree, profile):
        from repro.obs import validate_chrome_trace

        events = profile.counter_events(ts=123.0, tree=small_tree)
        assert all(e["ph"] == "C" for e in events)
        assert validate_chrome_trace({"traceEvents": events}) == []

    def test_chunk_heatmap(self):
        chunks = [{"chunk": c, "lane": c % 2, "dur": 0.01 * (c + 1)}
                  for c in range(8)]
        art = format_chunk_heatmap(chunks)
        assert "8 chunks" in art and "lane   0" in art and "lane   1" in art
        assert format_chunk_heatmap([]).startswith("(no parallel")
        prof = AttributionProfile(n_nodes=4, arrays={}, chunks=chunks)
        imb = prof.chunk_imbalance()
        assert imb["n_chunks"] == 8 and imb["n_lanes"] == 2
        assert imb["chunk_max_over_mean"] > 1.0


class TestMissAttribution:
    def test_per_partition_rows_consistent_with_fetch_statistics(
            self, clustered_tree):
        parts = SfcDecomposer().assign(clustered_tree.particles, 4)
        dec = decompose(clustered_tree, parts, n_subtrees=8)
        lists = InteractionLists()
        engine = get_traverser("transposed")
        engine.traverse(clustered_tree, CountInRadiusVisitor(clustered_tree, 0.3),
                        clustered_tree.leaf_indices, lists)
        groups = assign_fetch_groups(clustered_tree, dec)
        attr = miss_attribution(clustered_tree, lists, dec, groups,
                                n_processes=4)
        fs = fetch_statistics(clustered_tree, lists, dec, groups,
                              n_processes=4, cache_model=WAITFREE)
        # partition-level rollup must agree with the process-level totals
        assert attr["total_remote_touches"] == int(fs.touches.sum())
        assert attr["total_bytes"] == pytest.approx(float(fs.bytes_in.sum()))
        assert attr["partitions"], "clustered run should touch remote data"
        touches = [r["touches"] for r in attr["partitions"]]
        assert touches == sorted(touches, reverse=True)
        assert sum(touches) == attr["total_remote_touches"]
        node_remote = np.asarray(attr["node_remote_touches"])
        assert int(node_remote.sum()) == attr["total_remote_touches"]
        # deterministic: same inputs, same dict
        again = miss_attribution(clustered_tree, lists, dec, groups,
                                 n_processes=4)
        assert again == attr

    def test_leaf_partition_on_decomposition(self, clustered_tree):
        parts = SfcDecomposer().assign(clustered_tree.particles, 4)
        dec = decompose(clustered_tree, parts, n_subtrees=4)
        lp = dec.leaf_partition()
        assert lp.shape == (clustered_tree.n_nodes,)
        leaves = clustered_tree.leaf_indices
        assert (lp[leaves] >= 0).all() and (lp[leaves] < 4).all()


class _AttrGravity:
    """Driver-pipeline integration: tiny gravity run with attribution."""

    @staticmethod
    def make(n=400, iterations=1, backend=None, workers=2):
        from repro.apps.gravity import GravityDriver

        p = clustered_clumps(n, seed=3)

        class Main(GravityDriver):
            def create_particles(self, config):
                return p

        driver = Main(Configuration(num_iterations=iterations,
                                    bucket_size=16, num_partitions=4,
                                    num_subtrees=4), theta=0.7)
        driver.attr = driver.observe(Attribution())
        if backend:
            driver.enable_parallel(backend, workers=workers)
        return driver


class TestDriverIntegration:
    def test_reports_and_profiles(self):
        driver = _AttrGravity.make(iterations=2)
        try:
            reports = driver.run()
        finally:
            driver.disable_parallel()
        assert len(driver.attr.profiles) == 2
        for rep, prof in zip(reports, driver.attr.profiles):
            assert rep.attribution is not None
            assert rep.attribution["totals"]["visits"] > 0
            assert rep.attribution["top_subtrees"]
            assert rep.attribution["cache"]["total_remote_touches"] >= 0
            assert rep.attribution == json.loads(json.dumps(rep.to_dict()))["attribution"]
            assert prof.cache is not None
            # the full per-node array backs the report's totals
            assert prof.totals()["visits"] == rep.attribution["totals"]["visits"]
        # lists retained for the explain DES replay
        assert driver.last_interaction_lists is not None
        assert driver.last_interaction_lists["open"]

    def test_parallel_matches_serial_driver(self):
        serial = _AttrGravity.make()
        try:
            serial.run()
        finally:
            serial.disable_parallel()
        threaded = _AttrGravity.make(backend="threads", workers=2)
        try:
            threaded.run()
        finally:
            threaded.disable_parallel()
        a = serial.attr.profiles[0]
        b = threaded.attr.profiles[0]
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name]), name
        # parallel run collected chunk samples for the heatmap
        assert b.chunks and b.chunk_imbalance()["n_chunks"] >= 1

    def test_disabled_mode_records_nothing(self):
        driver = _AttrGravity.make()
        driver.observers.remove(driver.attr)
        try:
            reports = driver.run()
        finally:
            driver.disable_parallel()
        assert driver.attr.profiles == []
        assert reports[0].attribution is None
        assert driver.last_interaction_lists is None
