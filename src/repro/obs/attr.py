"""Traversal attribution: per-node / per-bucket SoA cost counters.

The observability stack so far answers *how long* (PR 1 traces, the DES
critical path, continuous profiles) but never *where in the tree*.  This
module closes that gap: an :class:`AttributionRecorder` rides the existing
:class:`~repro.core.traverser.Recorder` protocol and accumulates flat
int64 numpy arrays indexed by tree-node id —

* **source side** (which tree nodes cost us): ``visits`` (open()
  evaluations), ``mac_accepts`` (node() approximations), ``leaf_hits``
  (exact leaf interactions), ``pn_pairs`` / ``pp_pairs`` (kernel pairs);
* **bucket side** (which target buckets paid): ``bucket_visits``,
  ``bucket_pn``, ``bucket_pp``, indexed by target leaf id.

Design constraints, in order:

1. **Bit-identical for any backend × worker count.**  All counters are
   integers scattered with ``np.add.at`` (exact, order-independent
   addition), forks start at zero and are absorbed in chunk order, and
   the nanosecond cost estimate is a *fixed* linear model over the
   counters (:data:`OPEN_COST_NS` etc.) — never a wall clock.  The
   differential harness asserts equality across serial/threads/processes
   at workers {1, 2, 4}.
2. **Near-zero overhead when disabled.**  Disabled attribution is the
   absence of the recorder — the traversal inner loops already skip every
   callback when ``recorder is None`` (``benchmarks/bench_attr_overhead``
   pins the enabled cost too).
3. **Picklable forks.**  Process workers receive a fork by pickle and
   return it filled; the cached per-leaf particle counts are derived
   from the tree inside the worker, not shipped.

On top of the raw arrays, :class:`AttributionProfile` provides the
reporting surface ``repro explain`` renders: subtree rollups (top-K hot
subtrees at a depth cutoff), chunk-imbalance heatmaps from exec task
samples, Perfetto counter-track export alongside the PR 1 trace, and a
``repro.attr/1`` JSON document checked by
:func:`~repro.obs.validate.validate_attribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "ATTR_SCHEMA",
    "ARRAY_FIELDS",
    "OPEN_COST_NS",
    "PN_COST_NS",
    "PP_COST_NS",
    "AttributionRecorder",
    "AttributionProfile",
    "format_chunk_heatmap",
]

#: schema tag on every attribution document, bumped on layout changes
ATTR_SCHEMA = "repro.attr/1"

#: the SoA counter arrays, all int64 of length n_nodes, in export order
ARRAY_FIELDS = (
    "visits",
    "mac_accepts",
    "leaf_hits",
    "pn_pairs",
    "pp_pairs",
    "bucket_visits",
    "bucket_pn",
    "bucket_pp",
)

# Fixed cost model (integer nanoseconds per event).  The absolute values
# are calibrated to the numpy kernels' rough per-element cost; what
# matters for attribution is the *ratio* and that the estimate is a pure
# function of the deterministic counters — so cost arrays stay
# bit-identical across backends, unlike any measured timing.
OPEN_COST_NS = 40   # one MAC / open() evaluation
PN_COST_NS = 12     # one particle-node kernel pair
PP_COST_NS = 9      # one particle-particle kernel pair


class AttributionRecorder:
    """Recorder accumulating per-node and per-bucket traversal counters.

    Duck-types :class:`~repro.core.traverser.Recorder` (``on_*_pairs`` +
    ``fork``/``absorb``) without importing ``repro.core`` — the core
    traverser module imports ``repro.obs``, so the dependency must point
    this way only.
    """

    __slots__ = ("n_nodes", "visits", "mac_accepts", "leaf_hits",
                 "pn_pairs", "pp_pairs", "bucket_visits", "bucket_pn",
                 "bucket_pp", "_counts")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = int(n_nodes)
        for name in ARRAY_FIELDS:
            setattr(self, name, np.zeros(self.n_nodes, dtype=np.int64))
        self._counts: np.ndarray | None = None

    # -- helpers -------------------------------------------------------------
    def _particle_counts(self, tree) -> np.ndarray:
        # Derived from the tree on first use (and re-derived inside process
        # workers, where the fork arrives by pickle without it).
        counts = self._counts
        if counts is None:
            counts = tree.pend - tree.pstart
            self._counts = counts
        return counts

    # -- Recorder protocol ---------------------------------------------------
    def on_open_pairs(self, tree, sources: np.ndarray, targets: np.ndarray) -> None:
        np.add.at(self.visits, sources, 1)
        np.add.at(self.bucket_visits, targets, 1)

    def on_node_pairs(self, tree, sources: np.ndarray, targets: np.ndarray) -> None:
        rows = self._particle_counts(tree)[targets]
        np.add.at(self.mac_accepts, sources, 1)
        np.add.at(self.pn_pairs, sources, rows)
        np.add.at(self.bucket_pn, targets, rows)

    def on_leaf_pairs(self, tree, sources: np.ndarray, targets: np.ndarray) -> None:
        counts = self._particle_counts(tree)
        pairs = counts[sources] * counts[targets]
        np.add.at(self.leaf_hits, sources, 1)
        np.add.at(self.pp_pairs, sources, pairs)
        np.add.at(self.bucket_pp, targets, pairs)

    def fork(self) -> "AttributionRecorder":
        return AttributionRecorder(self.n_nodes)

    def absorb(self, other: "AttributionRecorder") -> None:
        if other.n_nodes != self.n_nodes:
            raise ValueError(
                f"cannot absorb attribution for {other.n_nodes} nodes "
                f"into {self.n_nodes}"
            )
        for name in ARRAY_FIELDS:
            getattr(self, name)[:] += getattr(other, name)

    # -- derived -------------------------------------------------------------
    def cost_ns(self) -> np.ndarray:
        """Deterministic per-node cost estimate (int64 nanoseconds)."""
        return (OPEN_COST_NS * self.visits
                + PN_COST_NS * self.pn_pairs
                + PP_COST_NS * self.pp_pairs)

    def mac_rejects(self) -> np.ndarray:
        """open() evaluations that opened the node (descend / leaf hit)."""
        return self.visits - self.mac_accepts

    # -- pickling (process-backend forks) ------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        state = {name: getattr(self, name) for name in ARRAY_FIELDS}
        state["n_nodes"] = self.n_nodes
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.n_nodes = state["n_nodes"]
        for name in ARRAY_FIELDS:
            setattr(self, name, state[name])
        self._counts = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AttributionRecorder(n_nodes={self.n_nodes}, "
                f"visits={int(self.visits.sum())}, "
                f"pp={int(self.pp_pairs.sum())})")


@dataclass
class AttributionProfile:
    """One iteration's attribution: raw arrays plus reporting context.

    ``cache`` carries the per-partition cache-miss attribution from
    :func:`~repro.cache.stats.miss_attribution`; ``chunks`` carries exec
    chunk task samples (chunk id, worker lane, duration) for the
    imbalance heatmap.  Both are optional — the arrays alone are the
    deterministic core.
    """

    n_nodes: int
    arrays: dict[str, np.ndarray]
    iteration: int | None = None
    cache: dict[str, Any] | None = None
    chunks: list[dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_recorder(cls, recorder: AttributionRecorder,
                      iteration: int | None = None,
                      chunks: list[dict[str, Any]] | None = None,
                      ) -> "AttributionProfile":
        arrays = {name: getattr(recorder, name).copy() for name in ARRAY_FIELDS}
        arrays["mac_rejects"] = recorder.mac_rejects()
        arrays["cost_ns"] = recorder.cost_ns()
        return cls(n_nodes=recorder.n_nodes, arrays=arrays,
                   iteration=iteration, chunks=list(chunks or []))

    def merge(self, other: "AttributionProfile") -> "AttributionProfile":
        """Fold another iteration's profile in (exact integer addition)."""
        if other.n_nodes != self.n_nodes:
            raise ValueError("cannot merge profiles over different trees")
        for name, arr in self.arrays.items():
            arr[:] += other.arrays[name]
        self.chunks.extend(other.chunks)
        return self

    # -- rollups -------------------------------------------------------------
    def totals(self) -> dict[str, int]:
        return {name: int(arr.sum()) for name, arr in self.arrays.items()}

    def subtree_rollup(self, tree, depth: int = 3, top: int = 8) -> list[dict[str, Any]]:
        """Top-``top`` hottest subtrees, aggregating each node's cost into
        its ancestor at level ``depth`` (nodes above the cutoff represent
        themselves).  This is the per-subtree access profile that steers
        what to vectorize or shard (ROADMAP items 2 and 3)."""
        level = np.asarray(tree.level)
        parent = np.asarray(tree.parent)
        anchor = np.arange(self.n_nodes, dtype=np.int64)
        # Walk each node up to its depth-`depth` ancestor; bounded by the
        # tree height, no per-node Python loop.
        for _ in range(int(level.max(initial=0))):
            deep = level[anchor] > depth
            if not deep.any():
                break
            anchor[deep] = parent[anchor[deep]]

        def rollup(name: str) -> np.ndarray:
            return np.bincount(anchor, weights=self.arrays[name],
                               minlength=self.n_nodes).astype(np.int64)

        cost = rollup("cost_ns")
        visits = rollup("visits")
        pp = rollup("pp_pairs")
        pn = rollup("pn_pairs")
        counts = tree.pend - tree.pstart
        order = np.argsort(-cost, kind="stable")[:top]
        total = int(cost.sum()) or 1
        out = []
        for node in order:
            node = int(node)
            if cost[node] == 0:
                break
            out.append({
                "node": node,
                "level": int(level[node]),
                "particles": int(counts[node]),
                "cost_ns": int(cost[node]),
                "cost_frac": float(cost[node] / total),
                "visits": int(visits[node]),
                "pp_pairs": int(pp[node]),
                "pn_pairs": int(pn[node]),
            })
        return out

    def chunk_imbalance(self) -> dict[str, Any] | None:
        """Imbalance summary over the exec chunk samples (None when the
        iteration ran serially)."""
        if not self.chunks:
            return None
        durs = np.array([c["dur"] for c in self.chunks], dtype=np.float64)
        lanes: dict[int, float] = {}
        for c in self.chunks:
            lanes[int(c.get("lane", 0))] = lanes.get(int(c.get("lane", 0)), 0.0) \
                + float(c["dur"])
        busy = np.array(list(lanes.values()))
        return {
            "n_chunks": len(self.chunks),
            "n_lanes": len(lanes),
            "chunk_max_over_mean": float(durs.max() / durs.mean()) if durs.size else 1.0,
            "lane_max_over_mean": float(busy.max() / busy.mean()) if busy.size else 1.0,
        }

    # -- export --------------------------------------------------------------
    def to_dict(self, tree=None, depth: int = 3, top: int = 8) -> dict[str, Any]:
        """``repro.attr/1`` JSON document (full arrays + rollups)."""
        doc: dict[str, Any] = {
            "schema": ATTR_SCHEMA,
            "n_nodes": self.n_nodes,
            "iteration": self.iteration,
            "cost_model_ns": {"open": OPEN_COST_NS, "pn": PN_COST_NS,
                              "pp": PP_COST_NS},
            "totals": self.totals(),
            "arrays": {name: arr.tolist() for name, arr in self.arrays.items()},
        }
        if tree is not None:
            doc["subtrees"] = self.subtree_rollup(tree, depth=depth, top=top)
            doc["subtree_depth"] = depth
        if self.cache is not None:
            doc["cache"] = self.cache
        imb = self.chunk_imbalance()
        if imb is not None:
            doc["chunk_imbalance"] = imb
            doc["chunks"] = self.chunks
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "AttributionProfile":
        if doc.get("schema") != ATTR_SCHEMA:
            raise ValueError(
                f"not an attribution document (schema={doc.get('schema')!r}, "
                f"expected {ATTR_SCHEMA!r})"
            )
        arrays = {name: np.asarray(vals, dtype=np.int64)
                  for name, vals in doc["arrays"].items()}
        return cls(n_nodes=int(doc["n_nodes"]), arrays=arrays,
                   iteration=doc.get("iteration"), cache=doc.get("cache"),
                   chunks=list(doc.get("chunks", [])))

    def summary(self, tree=None, depth: int = 3, top: int = 5) -> dict[str, Any]:
        """Compact per-iteration summary for :class:`IterationReport`
        (totals + top subtrees, no full arrays)."""
        out: dict[str, Any] = {
            "totals": self.totals(),
            "cost_ns": int(self.arrays["cost_ns"].sum()),
        }
        if tree is not None:
            out["top_subtrees"] = self.subtree_rollup(tree, depth=depth, top=top)
        if self.cache is not None:
            out["cache"] = {k: v for k, v in self.cache.items()
                            if k != "node_remote_touches"}
        imb = self.chunk_imbalance()
        if imb is not None:
            out["chunk_imbalance"] = imb
        return out

    def counter_events(self, ts: float, pid: int = 0,
                       tree=None, depth: int = 3, top: int = 4,
                       ) -> list[dict[str, Any]]:
        """Perfetto counter-track events (``ph == "C"``) sampling this
        profile at trace time ``ts`` (µs), alongside the PR 1 span trace."""
        totals = self.totals()
        events = [
            {"name": f"attr.{name}", "ph": "C", "ts": ts, "pid": pid,
             "tid": 0, "args": {name: totals[name]}}
            for name in ("visits", "pn_pairs", "pp_pairs", "cost_ns")
        ]
        if tree is not None:
            hot = self.subtree_rollup(tree, depth=depth, top=top)
            if hot:
                events.append({
                    "name": "attr.subtree_cost_ns", "ph": "C", "ts": ts,
                    "pid": pid, "tid": 0,
                    "args": {f"node{e['node']}": e["cost_ns"] for e in hot},
                })
        return events


_HEAT = " ·▁▂▃▄▅▆▇█"


def format_chunk_heatmap(chunks: list[dict[str, Any]], width: int = 64) -> str:
    """ASCII heatmap of chunk durations: one row per worker lane, one cell
    per chunk (in chunk order), shade ∝ duration / max duration.  Reads as
    the Fig 9-style utilisation picture: a ragged dark column is the
    straggler chunk the decomposition should split."""
    if not chunks:
        return "(no parallel chunk samples)"
    by_lane: dict[int, dict[int, float]] = {}
    max_dur = max(float(c["dur"]) for c in chunks) or 1.0
    n_chunks = max(int(c["chunk"]) for c in chunks) + 1
    for c in chunks:
        by_lane.setdefault(int(c.get("lane", 0)), {})[int(c["chunk"])] = float(c["dur"])
    cells = min(n_chunks, width)
    lines = [f"chunk imbalance ({n_chunks} chunks × {len(by_lane)} lanes, "
             f"█ = {max_dur * 1e3:.3f} ms)"]
    for lane in sorted(by_lane):
        row = []
        for cell in range(cells):
            # fold chunks into `cells` columns when there are too many
            lo = cell * n_chunks // cells
            hi = max((cell + 1) * n_chunks // cells, lo + 1)
            dur = max((by_lane[lane].get(c, 0.0) for c in range(lo, hi)),
                      default=0.0)
            shade = int(round(dur / max_dur * (len(_HEAT) - 1)))
            row.append(_HEAT[shade])
        lines.append(f"  lane {lane:>3} {''.join(row)}")
    return "\n".join(lines)
