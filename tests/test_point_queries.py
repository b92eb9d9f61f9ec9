"""Point queries on the pair frontier: a batch of arbitrary query points is
a batch of targets for the same visitors and the same ``walk_frontier`` the
batch pipelines use (``knn_points``/``range_points``; ``repro serve``'s
``execute_queries`` on top of them).

Four independent references: brute force with the arithmetic written out
here (exact index lists in ``(dist, index)`` order, exact counts, compared
as ``json.dumps`` bytes), the same docs executed one per call, any
permutation or split of the batch, and the per-point stack walker the
service used to have (``tests/harness/point_reference.py``).  Plus digests
of the default (tree-leaf) target table recorded at the commit before the
visitors learnt to read their targets from a table.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.collision import detect_collisions
from repro.apps.knn import (BallSearchVisitor, Targets, ball_search, knn_points,
                            knn_search, range_points)
from repro.core.batched import SLICE_ROWS
from repro.particles import ParticleSet, clustered_clumps
from repro.serve import BatchExecutor, build_resident_state, execute_queries
from repro.trees import build_tree
from tests.harness.point_reference import reference_knn_point, reference_range_point

TREE_TYPES = ("oct", "kd", "longest")


# ---------------------------------------------------------------------------
# brute force, sharing no code with the search


def brute_reply(pos, mass, doc, max_results):
    """What ``execute_queries`` must answer for one valid doc."""
    delta = pos - np.asarray(doc["point"], dtype=np.float64)
    d2 = delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] + delta[:, 2] * delta[:, 2]
    if doc["op"] == "range":
        inside = np.flatnonzero(d2 <= doc["radius"] * doc["radius"])
        reply = {"count": len(inside)}
        if len(inside) > max_results:
            reply["truncated"] = True
        reply["idx"] = inside[:max_results].tolist()
        return reply
    order = np.lexsort((np.arange(len(pos)), d2))[:doc["k"]]
    if doc["op"] == "knn":
        return {"idx": order.tolist(), "dist": np.sqrt(d2[order]).tolist()}
    h = float(np.sqrt(d2[order[-1]]))     # 0 on a particle with k = 1: a huge finite rho
    return {"rho": float(mass[order].sum()) / ((4.0 / 3.0) * np.pi * max(h ** 3, 1e-300)), "h": h}


def make_positions(rng, n, layout):
    if layout == "duplicates":       # few distinct sites, many exact copies
        sites = rng.integers(0, 8, size=(max(1, n // 6), 3)) / 8.0
        return sites[rng.integers(len(sites), size=n)]
    if layout == "collinear":
        return np.outer(rng.integers(0, 32, n) / 32.0, [1.0, 0.5, -0.25])
    if layout == "lattice":          # ties everywhere, at every cut
        return rng.integers(0, 4, size=(n, 3)).astype(float)
    return rng.uniform(-1.0, 1.0, size=(n, 3))


def make_docs(rng, pos, n_docs):
    n = len(pos)
    span = float(np.ptp(pos, axis=0).max()) or 1.0
    docs = []
    for i in range(n_docs):
        where = rng.integers(4)
        if where == 0:                                   # on a particle
            point = pos[rng.integers(n)]
        elif where == 1:                                 # far outside the root box
            point = pos.max(axis=0) + span * rng.uniform(2.0, 50.0, 3)
        else:
            point = pos[rng.integers(n)] + span * rng.normal(0, 0.2, 3)
        doc = {"id": f"q{i}", "op": ("knn", "range", "density")[rng.integers(3)],
               "point": [float(c) for c in point]}
        if doc["op"] == "range":
            doc["radius"] = float(rng.choice([0.0, 0.3 * span * rng.uniform(), 100.0 * span]))
        else:
            doc["k"] = int(rng.choice([1, n, rng.integers(1, n + 1)]))
        docs.append(doc)
    return docs


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), tree_type=st.sampled_from(TREE_TYPES),
           n=st.integers(1, 400), bucket_size=st.sampled_from([1, 3, 16]),
           layout=st.sampled_from(["random", "duplicates", "collinear", "lattice"]),
           exponent=st.integers(-9, 12))
    def test_batch_equals_brute_force_singles_and_any_split(
            self, seed, tree_type, n, bucket_size, layout, exponent):
        rng = np.random.default_rng(seed)
        positions = make_positions(rng, n, layout) * 10.0 ** exponent
        particles = ParticleSet(positions, mass=rng.uniform(0.5, 2.0, n))
        tree = build_tree(particles, tree_type=tree_type, bucket_size=bucket_size)
        pos, mass = tree.particles.position, tree.particles.mass
        docs = make_docs(rng, pos, int(rng.integers(1, 20)))
        max_results = int(rng.choice([3, 256]))

        def as_bytes(replies):
            return json.dumps(replies).encode()

        got = execute_queries(tree, docs, max_results)
        assert as_bytes(got) == as_bytes(
            [brute_reply(pos, mass, doc, max_results) for doc in docs])
        assert as_bytes(got) == as_bytes(
            [execute_queries(tree, [doc], max_results)[0] for doc in docs])
        order = rng.permutation(len(docs))
        cut = int(rng.integers(len(docs) + 1))
        shuffled = (execute_queries(tree, [docs[i] for i in order[:cut]], max_results)
                    + execute_queries(tree, [docs[i] for i in order[cut:]], max_results))
        assert as_bytes([shuffled[i] for i in np.argsort(order)]) == as_bytes(got)

    @pytest.mark.parametrize("tree_type", TREE_TYPES)
    def test_lower_index_wins_a_tie_at_the_cut(self, tree_type):
        """The centre of a lattice cell has eight corners at one distance:
        k = 3 must name the three lowest indices — a choice the stack walker
        this path replaced left to ``argpartition``."""
        g = np.arange(8.0)
        lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        tree = build_tree(ParticleSet(lattice), tree_type=tree_type, bucket_size=8)
        pos, mass = tree.particles.position, tree.particles.mass
        cells = np.stack(np.meshgrid(g[:-1], g[:-1], g[:-1], indexing="ij"), -1).reshape(-1, 3)
        docs = [{"op": "knn", "point": (cell + 0.5).tolist(), "k": k}
                for cell in cells[::5] for k in (3, 8, 9)]
        got = execute_queries(tree, docs)
        for doc, reply in zip(docs, got):
            assert reply == brute_reply(pos, mass, doc, 256)
        assert any(len(set(r["dist"])) == 1 and len(r["dist"]) == 3 for r in got)

    @pytest.mark.parametrize("tree_type", TREE_TYPES)
    def test_agrees_with_the_per_point_stack_walker(self, tree_type):
        tree = build_tree(clustered_clumps(3000, seed=31), tree_type=tree_type, bucket_size=12)
        rng = np.random.default_rng(32)
        points = rng.uniform(-0.6, 0.6, size=(40, 3))
        radii = rng.uniform(0.0, 0.2, 40)
        found = knn_points(tree, points, 9)
        counts, lists = range_points(tree, points, radii)
        for t, point in enumerate(points):
            np.testing.assert_allclose(found.dist_sq[t], reference_knn_point(tree, point, 9),
                                       rtol=1e-12, atol=0)
            want = reference_range_point(tree, point, radii[t])
            assert lists[t].tolist() == want.tolist() and counts[t] == len(want)
        # the seed keeps the walk near the answer: a few buckets per query
        assert found.stats.pp_interactions < 40 * 20 * tree.bucket_size


# ---------------------------------------------------------------------------
# execute_queries: the docs the service would have refused


class TestBadDocsStayInTheirSlot:
    def test_mixed_good_and_bad_batch(self):
        tree = build_tree(clustered_clumps(300, seed=2), bucket_size=8)
        pos, mass = tree.particles.position, tree.particles.mass
        good = [{"op": "knn", "point": [0.1, 0.0, -0.1], "k": 5},
                {"op": "range", "point": [0.0, 0.0, 0.0], "radius": 0.2},
                {"op": "density", "point": [0.2, 0.1, 0.0], "k": 7}]
        bad = [{"op": "knn", "point": [0.0, 0.0, 0.0], "k": 301},          # k > N
               {"op": "knn", "point": [0.0, 0.0, 0.0], "k": 0},
               {"op": "range", "point": [0.0, 0.0, 0.0], "radius": -1.0},
               {"op": "range", "point": [0.0, 0.0, 0.0], "radius": float("nan")},
               {"op": "density", "point": [float("nan"), 0.0, 0.0], "k": 3},
               {"op": "knn", "point": [float("inf"), 0.0, 0.0], "k": 3},
               {"op": "knn", "point": [0.0, 0.0], "k": 3},
               {"op": "nearest", "point": [0.0, 0.0, 0.0]},
               {"op": "knn", "point": [0.0, 0.0, 0.0], "k": "NaN"},
               "not a dict"]
        docs = [bad[0], good[0], *bad[1:5], good[1], *bad[5:], good[2]]
        out = execute_queries(tree, docs)
        json.dumps(out, allow_nan=False)                 # every reply is JSON
        for doc, reply in zip(docs, out):
            if any(doc is g for g in good):
                assert reply == brute_reply(pos, mass, doc, 256)
            else:
                assert list(reply) == ["error"] and isinstance(reply["error"], str)
        # the rule is Query.validate's, wording included
        assert out[0]["error"] == "k=301 out of range [1, 300]"

    def test_a_walk_that_raises_fails_its_rows_not_the_batch(self, monkeypatch):
        tree = build_tree(clustered_clumps(300, seed=2), bucket_size=8)

        def boom(*args, **kwargs):
            raise RuntimeError("frontier exploded")

        monkeypatch.setattr("repro.serve.kernels.knn_points", boom)
        out = execute_queries(tree, [
            {"op": "knn", "point": [0.0, 0.0, 0.0], "k": 2},
            {"op": "range", "point": [0.0, 0.0, 0.0], "radius": 0.1},
            {"op": "density", "point": [0.0, 0.0, 0.0], "k": 2}])
        assert out[0] == out[2] == {"error": "RuntimeError: frontier exploded"}
        assert "count" in out[1]


# ---------------------------------------------------------------------------
# memory: retained hits are O(Q * max_results), whatever the radii


class TestRangeMemoryIsBounded:
    def test_domain_covering_radii_keep_exact_counts_and_few_rows(self):
        n, q, keep = 20_000, 64, 256
        tree = build_tree(clustered_clumps(n, seed=5), bucket_size=16)
        points = np.random.default_rng(6).uniform(-0.5, 0.5, size=(q, 3))
        docs = [{"op": "range", "point": p.tolist(), "radius": 10.0} for p in points]

        tracemalloc.start()
        out = execute_queries(tree, docs, max_results=keep)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert all(r == {"count": n, "truncated": True, "idx": list(range(keep))} for r in out)
        # Q x N hit rows would be 64 * 20 000 * 2 * 8 B = 20 MB on their own
        assert peak < 8 << 20

        visitor = BallSearchVisitor(tree, np.full(q, 10.0), targets=Targets.of_points(points),
                                    keep=keep)
        most = [0]
        fold = visitor._fold

        def watched():
            most[0] = max(most[0], sum(len(t) for t, _ in visitor._hits))
            return fold()

        visitor._fold = watched
        visitor.targets.walk(tree, visitor)
        lists = visitor.neighbor_lists()
        # folded rows + one budget of unfolded ones + the slice that crossed it
        assert most[0] <= q * keep + 2 * SLICE_ROWS + n
        assert sum(len(t) for t, _ in visitor._hits) <= q * keep
        assert visitor.count.tolist() == [n] * q
        assert all(nbrs.tolist() == list(range(keep)) for nbrs in lists)


# ---------------------------------------------------------------------------
# executor chunking: one contiguous chunk per worker, replies unchanged


class TestExecutorChunks:
    def test_default_is_one_chunk_per_worker_and_replies_do_not_depend_on_it(self):
        state = build_resident_state({"kind": "clumps", "n": 900, "seed": 4})
        rng = np.random.default_rng(9)
        docs = [{"id": f"q{i}", "op": op, "point": rng.uniform(-0.5, 0.5, 3).tolist(),
                 **({"radius": 0.1} if op == "range" else {"k": int(rng.integers(1, 12))})}
                for i, op in enumerate(rng.choice(["knn", "range", "density"], 50))]
        inline = BatchExecutor(state, mode="inline")
        threads = BatchExecutor(state, mode="threads", workers=3)
        explicit = BatchExecutor(state, mode="threads", workers=3, chunk_size=16)
        try:
            assert [len(c) for c in threads._chunks(docs)] == [17, 17, 16]
            assert [len(c) for c in threads._chunks(docs[:2])] == [1, 1]
            assert [len(c) for c in explicit._chunks(docs)] == [16, 16, 16, 2]
            want = json.dumps(inline.execute(docs))
            assert json.dumps(threads.execute(docs)) == want
            assert json.dumps(explicit.execute(docs)) == want
        finally:
            threads.shutdown()
            explicit.shutdown()


# ---------------------------------------------------------------------------
# the default target table changes nothing: digests recorded at the parent


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


#: tree type -> (knn_search rows, its pp count, ball_search lists, its pp
#: count, detect_collisions events, its opens), from the commit before
#: ``Targets`` existed.  Not to be regenerated to make a change pass: only
#: the opens column was restated, once, when the collision search got its
#: own pruning rule (oct 20 439, kd 10 262, longest 9 540 before).
DEFAULT_TABLE_PINS = {
    "oct": ("f9be4a64174a7873", 109404, "7e7f22d7c1f82386", 71646, "3d8141041e356883", 15074),
    "kd": ("cbfa5313486f4d9d", 235783, "6d5037b69720e591", 118766, "5bf09fb226bb2c64", 6746),
    "longest": ("78efe67e73bd4e13", 209154, "7a6d0f777e817e5f", 112060, "77cf492529174795",
                6516),
}


@pytest.mark.parametrize("tree_type", TREE_TYPES)
def test_default_target_table_outputs_are_pinned(tree_type):
    base = clustered_clumps(900, seed=8)
    velocity = np.random.default_rng(8).normal(0, 0.3, (900, 3))
    particles = ParticleSet(base.position, velocity, base.mass, radius=np.full(900, 0.004))
    tree = build_tree(particles, tree_type=tree_type, bucket_size=10)
    knn = knn_search(tree, 6)
    lists, ball_stats = ball_search(tree, np.linspace(0.02, 0.12, 900))
    events, hit_stats = detect_collisions(tree, dt=0.05)
    assert (
        _digest(knn.dist_sq, knn.index), knn.stats.pp_interactions,
        _digest(np.concatenate(lists), [len(nbrs) for nbrs in lists]),
        ball_stats.pp_interactions,
        _digest([e.i for e in events], [e.j for e in events], [e.time for e in events],
                [e.distance for e in events]),
        hit_stats.opens,
    ) == DEFAULT_TABLE_PINS[tree_type]
