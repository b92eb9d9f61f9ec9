"""Point-query execution over the resident tree.

A batch of wire-format queries is one batch of *query-side targets* for the
same engine the batch pipelines run on: every doc is validated by the rule
the service admits with (:meth:`~repro.serve.protocol.Query.validate`),
the knn and density rows share one seeded frontier walk at the largest
``k`` of the batch (:func:`repro.apps.knn.knn_points`; a row keeps its
first ``k`` columns — a canonical ``(dist, index)`` prefix), the range rows
one ball walk (:func:`repro.apps.knn.range_points`).  A reply is a pure
function of ``(tree, query)`` — no clocks, no RNG, and not of which other
queries share the batch — which is what makes drained-and-resumed servers,
and any executor chunking, return bit-identical answers.

Results are returned JSON-ready (lists of Python ints/floats) because
they cross both the socket protocol and process-pool pickling.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..apps.knn import knn_points, range_points
from ..trees.node import Tree
from .protocol import ProtocolError, Query


def _knn_rows(tree: Tree, points, queries, max_results) -> list[dict[str, Any]]:
    found = knn_points(tree, points, max(q.k for q in queries))
    dist = np.sqrt(found.dist_sq)
    out: list[dict[str, Any]] = []
    for query, idx, d in zip(queries, found.index, dist):
        if query.op == "knn":
            out.append({"idx": idx[:query.k].tolist(), "dist": d[:query.k].tolist()})
        else:  # density: neighbour mass inside the k-th distance over its ball
            h = float(d[query.k - 1])
            msum = float(tree.particles.mass[idx[:query.k]].sum())
            out.append({"rho": msum / ((4.0 / 3.0) * np.pi * max(h ** 3, 1e-300)), "h": h})
    return out


def _range_rows(tree: Tree, points, queries, max_results) -> list[dict[str, Any]]:
    counts, lists = range_points(tree, points, [q.radius for q in queries], max_results)
    return [{"count": n, **({"truncated": True} if n > max_results else {}), "idx": idx.tolist()}
            for n, idx in zip(counts.tolist(), lists)]


def execute_queries(tree: Tree, queries: list[dict[str, Any]],
                    max_results: int = 256) -> list[dict[str, Any]]:
    """Run one chunk of wire-format queries; one result dict per query.

    This is the function the executor ships to workers, so it takes and
    returns only plain (picklable, JSON-ready) structures.  A doc the
    service would have refused gets ``{"error": ...}`` in its slot and never
    reaches a walk; a walk that raises fails its own rows, not the chunk.
    """
    out: list[dict[str, Any]] = [{}] * len(queries)
    groups: dict[Any, list[tuple[int, Query]]] = {_knn_rows: [], _range_rows: []}
    for slot, doc in enumerate(queries):
        try:
            query = Query.from_wire(doc)
            bad = query.validate(tree.n_particles, tree.n_particles)
        except ProtocolError as exc:
            bad = str(exc)
        if bad is None:
            groups[_range_rows if query.op == "range" else _knn_rows].append((slot, query))
        else:
            out[slot] = {"error": bad}
    for run, members in groups.items():
        if members:
            slots, parsed = zip(*members)
            try:
                results = run(tree, np.array([q.point for q in parsed]), parsed, max_results)
            except Exception as exc:  # noqa: BLE001 - per-query isolation
                results = [{"error": f"{type(exc).__name__}: {exc}"}] * len(slots)
            for slot, result in zip(slots, results):
                out[slot] = result
    return out
