"""Traversal engines: cross-engine equivalence, stats, recorders, and the
one hook family (scalar and pair form are each other's defaults)."""

import numpy as np
import pytest

from repro.apps.gravity import (
    GravityVisitor,
    compute_centroid_arrays,
    compute_gravity,
    direct_accelerations,
)
from repro.core import (
    InteractionLists,
    TraversalStats,
    Visitor,
    get_traverser,
    register_traverser,
    top_down_engines,
)
from repro.core.traverser import BucketLoadRecorder, Traverser
from repro.particles import clustered_clumps, plummer_sphere, uniform_cube
from repro.trees import build_tree

from tests.harness.differential import (INTERACTION_KEYS, CountInRadiusVisitor,
                                        ScalarCountInRadiusVisitor)
from tests.harness.replay_reference import reference_per_particle_load


@pytest.fixture(scope="module")
def particles():
    return plummer_sphere(600, seed=2)


@pytest.fixture(scope="module")
def tree(particles):
    return build_tree(particles, tree_type="oct", bucket_size=12)


class TestEngineEquivalence:
    def test_same_interaction_counts(self, tree):
        """Both top-down engines evaluate exactly the same interaction set."""
        stats = {}
        for name in ("transposed", "per-bucket"):
            arrays = compute_centroid_arrays(tree, theta=0.6)
            visitor = GravityVisitor(tree, arrays)
            stats[name] = get_traverser(name).traverse(tree, visitor)
        a, b = stats["transposed"], stats["per-bucket"]
        assert a.opens == b.opens
        assert a.node_interactions == b.node_interactions
        assert a.leaf_interactions == b.leaf_interactions
        assert a.pp_interactions == b.pp_interactions
        assert a.pn_interactions == b.pn_interactions
        # ...but the transposed engine touches each node only once
        assert a.nodes_visited < b.nodes_visited

    def test_same_accelerations(self, particles):
        res_t = compute_gravity(particles, theta=0.6, traverser="transposed")
        res_b = compute_gravity(particles, theta=0.6, traverser="per-bucket")
        assert np.allclose(res_t.accel, res_b.accel, rtol=1e-9, atol=1e-12)

    def test_basic_alias(self, particles):
        res = compute_gravity(particles, theta=0.6, traverser="basic")
        res_b = compute_gravity(particles, theta=0.6, traverser="per-bucket")
        assert np.allclose(res.accel, res_b.accel)

    def test_matches_direct_sum(self, particles):
        res = compute_gravity(particles, theta=0.4, softening=1e-3)
        exact = direct_accelerations(particles, softening=1e-3)
        rel = np.linalg.norm(res.accel - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert np.median(rel) < 5e-3
        assert rel.mean() < 1e-2

    def test_accuracy_improves_with_theta(self, particles):
        exact = direct_accelerations(particles, softening=1e-3)

        def err(theta):
            res = compute_gravity(particles, theta=theta, softening=1e-3)
            return np.mean(
                np.linalg.norm(res.accel - exact, axis=1) / np.linalg.norm(exact, axis=1)
            )

        assert err(0.3) < err(0.9)

    def test_quadrupole_more_accurate(self, particles):
        exact = direct_accelerations(particles, softening=1e-3)
        mono = compute_gravity(particles, theta=0.7, softening=1e-3)
        quad = compute_gravity(particles, theta=0.7, softening=1e-3, with_quadrupole=True)

        def err(res):
            return np.mean(
                np.linalg.norm(res.accel - exact, axis=1) / np.linalg.norm(exact, axis=1)
            )

        assert err(quad) < 0.5 * err(mono)


class TestTargetSubsets:
    def test_partial_targets(self, tree):
        """Traversing half the buckets computes exactly those buckets."""
        arrays = compute_centroid_arrays(tree, theta=0.6)
        leaves = tree.leaf_indices
        half = leaves[: len(leaves) // 2]
        visitor = GravityVisitor(tree, arrays)
        get_traverser("transposed").traverse(tree, visitor, half)
        full_visitor = GravityVisitor(tree, arrays)
        get_traverser("transposed").traverse(tree, full_visitor)
        for leaf in half:
            s, e = tree.pstart[leaf], tree.pend[leaf]
            assert np.allclose(visitor.accel[s:e], full_visitor.accel[s:e])
        untouched = leaves[len(leaves) // 2 :]
        for leaf in untouched[:5]:
            s, e = tree.pstart[leaf], tree.pend[leaf]
            assert np.all(visitor.accel[s:e] == 0.0)

    def test_non_leaf_target_rejected(self, tree):
        visitor = GravityVisitor(tree, compute_centroid_arrays(tree))
        with pytest.raises(ValueError):
            get_traverser("transposed").traverse(tree, visitor, np.array([0]))

    @pytest.mark.parametrize("engine", [*top_down_engines(), "up-and-down"])
    @pytest.mark.parametrize("bad", ["negative", "out of range", "duplicate"])
    def test_bad_targets_rejected(self, tree, engine, bad):
        """``[-1]`` is not "the last node", and a bucket named twice is not
        computed twice by some engines and once by others."""
        leaf = int(tree.leaf_indices[3])
        targets = {"negative": [-1], "out of range": [leaf, tree.n_nodes],
                   "duplicate": [leaf, int(tree.leaf_indices[0]), leaf]}[bad]
        visitor = GravityVisitor(tree, compute_centroid_arrays(tree))
        with pytest.raises(ValueError, match="distinct leaf indices"):
            get_traverser(engine).traverse(tree, visitor, np.array(targets))
        assert not visitor.accel.any()

    def test_empty_targets(self, tree):
        visitor = GravityVisitor(tree, compute_centroid_arrays(tree))
        stats = get_traverser("transposed").traverse(
            tree, visitor, np.empty(0, dtype=np.int64)
        )
        assert stats.opens == 0


ALL_ENGINES = ("batched", "transposed", "per-bucket", "up-and-down", "priority", "dual-tree")


class ByLevel:
    """What the priority engine needs on top of the three hooks."""

    def priority(self, tree, source, target):
        return float(tree.level[source])


class ScalarForm(ByLevel, ScalarCountInRadiusVisitor):
    pass


class PairForm(ByLevel, CountInRadiusVisitor):
    pass


class TestHookDerivation:
    """One hook family: a visitor states ``open``/``node``/``leaf`` once, in
    the scalar or the pair form, and every engine runs it."""

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_scalar_only_equals_pair_only(self, engine):
        tree = build_tree(clustered_clumps(250, seed=7), tree_type="oct", bucket_size=8)
        runs = []
        for form in (ScalarForm, PairForm):
            visitor = form(tree, 0.08)
            stats = get_traverser(engine).traverse(tree, visitor).as_dict()
            runs.append((visitor.counts.tobytes(), {k: stats[k] for k in INTERACTION_KEYS}))
        assert runs[0] == runs[1]
        assert any(runs[0][0])

    @pytest.mark.parametrize("leg", ["monopole", "quadrupole", "potential"])
    def test_gravity_orderings_are_schedules(self, leg):
        """``per-bucket`` is the batched frontier walk one target at a time —
        one more cut, the same bytes; ``transposed`` hands the same kernels a
        source-major grouping, equal to rounding."""
        tree = build_tree(clustered_clumps(400, seed=8), tree_type="oct", bucket_size=8)
        arrays = compute_centroid_arrays(tree, theta=0.6,
                                         with_quadrupole=(leg == "quadrupole"))
        out = {}
        for engine in top_down_engines():
            visitor = GravityVisitor(tree, arrays, softening=1e-3,
                                     with_potential=(leg == "potential"))
            stats = get_traverser(engine).traverse(tree, visitor).as_dict()
            fields = [visitor.accel] + ([visitor.potential] if leg == "potential" else [])
            out[engine] = fields, {k: stats[k] for k in INTERACTION_KEYS}
        (batched, counts) = out["batched"]
        for engine, (fields, engine_counts) in out.items():
            assert engine_counts == counts
            for got, want in zip(fields, batched):
                if engine == "per-bucket":
                    assert got.tobytes() == want.tobytes()
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gravity_pair_hooks_take_pairs_in_any_order(self):
        """``*_pairs`` add every pair given, in any order: a target met in
        two non-adjacent runs (``[a, b, a]``), shuffled pair orders and one
        pair per call through the scalar ``node`` / ``leaf`` defaults (the
        dual-tree engine's calls) all equal a per-pair scalar loop within the
        any-order summation bound ``γ_{n-1} Σ|term|`` (Higham §4.2) — and
        an interleaved call equals its stably grouped twin in bits."""
        from math import fsum, sqrt

        tree = build_tree(clustered_clumps(300, seed=9), tree_type="oct", bucket_size=8)
        arrays = compute_centroid_arrays(tree, theta=0.6)
        leaves = tree.leaf_indices.tolist()
        inner = np.flatnonzero(tree.first_child != -1).tolist()
        a, b = leaves[2], leaves[-3]
        hooks = {
            "node": np.array([(inner[1], a), (inner[2], b), (inner[3], a), (leaves[5], b),
                              (inner[0], a)]),
            "leaf": np.array([(leaves[7], a), (leaves[8], b), (a, a), (leaves[9], b),
                              (b, a), (leaves[11], a)]),
        }
        G, eps = 1.3, 1e-3
        pos, mass = tree.particles.position, tree.particles.mass

        terms = {}          # row -> [(ax, ay, az, phi)], the per-pair scalar loop
        for kind, pairs in hooks.items():
            for s, t in pairs.tolist():
                items = ([(arrays.centroid[s], arrays.mass[s])] if kind == "node" else
                         [(pos[j], mass[j]) for j in range(tree.pstart[s], tree.pend[s])])
                for row in range(tree.pstart[t], tree.pend[t]):
                    for center, m in items:
                        d = [float(center[c]) - float(pos[row, c]) for c in range(3)]
                        r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
                        if r2 > 0.0:
                            rs = r2 + eps * eps
                            w = G * m / (rs * sqrt(rs))
                            terms.setdefault(row, []).append(
                                (d[0] * w, d[1] * w, d[2] * w, -(G * m * (1.0 / sqrt(rs)))))

        def run(calls, one_pair_per_call=False):
            v = GravityVisitor(tree, arrays, G=G, softening=eps, with_potential=True)
            for kind, pairs in calls:
                if one_pair_per_call:
                    for s, t in pairs.tolist():
                        getattr(v, kind)(tree.node(s), tree.node(t))
                else:
                    getattr(v, f"{kind}_pairs")(tree, pairs[:, 0], pairs[:, 1])
            return np.column_stack([v.accel, v.potential])

        rng = np.random.default_rng(3)
        runs = {
            "interleaved": run(hooks.items()),
            "shuffled": run([(k, p[rng.permutation(len(p))]) for k, p in hooks.items()]),
            "shuffled again": run([(k, p[rng.permutation(len(p))]) for k, p in hooks.items()]),
            "one pair per call": run(hooks.items(), one_pair_per_call=True),
        }
        u = 2.0 ** -53
        for name, got in runs.items():
            assert not np.delete(got, list(terms), axis=0).any(), name
            for row, values in terms.items():
                n = len(values)
                gamma = (n - 1) * u / (1 - (n - 1) * u)
                for c, column in enumerate(zip(*values)):
                    bound = gamma * fsum(abs(x) for x in column)
                    assert abs(got[row, c] - fsum(column)) <= bound, (name, row, c)
        grouped = run([(k, p[np.argsort(p[:, 1], kind="stable")]) for k, p in hooks.items()])
        assert runs["interleaved"].tobytes() == grouped.tobytes()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_neither_form_is_a_type_error(self, tree, engine):
        class OnlyOpens(Visitor):
            def open(self, source, target):
                return True

            def leaf_pairs(self, tree, sources, targets):
                pass

        with pytest.raises(TypeError, match=r"OnlyOpens must override node\(\) or node_pairs\(\)"):
            get_traverser(engine).traverse(tree, OnlyOpens())


class TestScalarFallback:
    def test_scalar_visitor_works_on_all_engines(self):
        """A paper-style visitor with only open/node/leaf runs unchanged."""
        particles = uniform_cube(150, seed=3)
        tree = build_tree(particles, tree_type="kd", bucket_size=6)
        arrays = compute_centroid_arrays(tree, theta=0.6)

        class ScalarGravity(Visitor):
            def __init__(self):
                self.accel = np.zeros((tree.n_particles, 3))

            def open(self, source, target):
                c = arrays.centroid[source.index]
                rsq = arrays.open_radius_sq[source.index]
                return bool(target.box.intersects_sphere(c, np.sqrt(rsq)))

            def node(self, source, target):
                from tests.harness.gravity_reference import point_mass_accel

                idx = np.arange(tree.pstart[target.index], tree.pend[target.index])
                self.accel[idx] += point_mass_accel(
                    tree.particles.position[idx],
                    arrays.centroid[source.index],
                    float(arrays.mass[source.index]),
                )

            def leaf(self, source, target):
                from repro.apps.gravity import pairwise_accel

                idx = np.arange(tree.pstart[target.index], tree.pend[target.index])
                s, e = tree.pstart[source.index], tree.pend[source.index]
                self.accel[idx] += pairwise_accel(
                    tree.particles.position[idx],
                    tree.particles.position[s:e],
                    tree.particles.mass[s:e],
                )

        results = {}
        for engine in ("transposed", "per-bucket"):
            v = ScalarGravity()
            get_traverser(engine).traverse(tree, v)
            results[engine] = v.accel
        assert np.allclose(results["transposed"], results["per-bucket"], rtol=1e-9)
        # and matches the fully-batched visitor
        fast = GravityVisitor(tree, arrays)
        get_traverser("transposed").traverse(tree, fast)
        assert np.allclose(results["transposed"], fast.accel, rtol=1e-9)


class TestRecorders:
    def test_interaction_lists_complete(self, tree):
        arrays = compute_centroid_arrays(tree, theta=0.6)
        visitor = GravityVisitor(tree, arrays)
        lists = InteractionLists()
        stats = get_traverser("transposed").traverse(tree, visitor, None, lists)
        assert len(lists["node"]) == stats.node_interactions
        assert len(lists["leaf"]) == stats.leaf_interactions
        assert len(lists["open"]) == stats.opens
        assert np.isin(lists["open"].targets, tree.leaf_indices).all()

    def test_lists_identical_across_engines(self, tree):
        arrays = compute_centroid_arrays(tree, theta=0.6)
        per_engine = {}
        for engine in ("transposed", "per-bucket"):
            lists = InteractionLists()
            get_traverser(engine).traverse(tree, GravityVisitor(tree, arrays), None, lists)
            per_engine[engine] = lists
        for kind in ("node", "leaf"):
            a, b = (per_engine[e][kind] for e in ("transposed", "per-bucket"))
            assert np.array_equal(a.targets, b.targets)
            assert np.array_equal(a.offsets, b.offsets)
            # the same sources per target, each in its schedule's own order
            a_pairs, b_pairs = (np.sort(x.pair_targets() * tree.n_nodes + x.sources)
                                for x in (a, b))
            assert np.array_equal(a_pairs, b_pairs)

    def test_bucket_load_recorder(self, tree):
        arrays = compute_centroid_arrays(tree, theta=0.6)
        rec = BucketLoadRecorder(tree)
        stats = get_traverser("transposed").traverse(
            tree, GravityVisitor(tree, arrays), None, rec
        )
        assert rec.work.sum() > 0
        per_particle = rec.per_particle_load(tree)
        assert per_particle.tobytes() == reference_per_particle_load(tree, rec.work).tobytes()
        assert per_particle.sum() == pytest.approx(rec.work.sum())
        # total recorded work equals the stats' interaction totals
        assert rec.work.sum() == pytest.approx(
            stats.pp_interactions + stats.pn_interactions
        )


class TestStatsAndRegistry:
    def test_stats_merge(self):
        a = TraversalStats(opens=1, pp_interactions=10, targets=2)
        b = TraversalStats(opens=2, node_interactions=5)
        a.merge(b)
        assert a.opens == 3 and a.node_interactions == 5 and a.targets == 2
        assert a.as_dict()["pp_interactions"] == 10

    def test_unknown_traverser(self):
        with pytest.raises(ValueError, match="unknown traverser"):
            get_traverser("spiral")

    def test_register_custom(self):
        class Nop(Traverser):
            name = "nop"

            def traverse(self, tree, visitor, targets=None, recorder=None):
                return TraversalStats()

        register_traverser("nop", Nop)
        assert isinstance(get_traverser("nop"), Nop)
