"""Memory-trace generation from real traversals.

:class:`MemoryTraceRecorder` plugs into a traversal engine as a
:class:`~repro.core.traverser.Recorder`; every call converts the engine's
actual evaluation steps into the cache lines they touch, under an explicit
:class:`DataLayout`.  Because the per-bucket and transposed engines deliver
the pairs in their own loop orders, the *same physics* produces two
different address streams — exactly the effect Table II measures.

Touched data per step (line-granular):

* opening test      — the source node's summary (centroid/mass/MAC sphere)
  and the target leaf's box;
* node interaction  — source node summary + every target particle's
  position (load) and acceleration (load + store);
* leaf interaction  — source leaf's positions & masses (load) + every
  target particle's position (load) and acceleration (load + store).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.traverser import Recorder
from ..trees import Tree
from .hierarchy import CacheHierarchy

__all__ = ["DataLayout", "MemoryTraceRecorder", "replay_trace", "interleave_traces"]


@dataclass(frozen=True)
class DataLayout:
    """Virtual address map of the traversal working set.

    Node summaries are 128 B (centroid, mass, MAC radius, box: the compact
    working set the Data abstraction drives); particle positions and
    accelerations are 24 B, masses 8 B.  Regions are spaced far apart so
    they never share lines.
    """

    line_size: int = 64
    node_stride: int = 128
    node_base: int = 0x0000_0000
    pos_base: int = 0x4000_0000
    mass_base: int = 0x6000_0000
    acc_base: int = 0x8000_0000
    pos_stride: int = 24
    mass_stride: int = 8
    acc_stride: int = 24

    def node_lines(self, nodes: np.ndarray) -> np.ndarray:
        return self._range_lines(self.node_base, nodes, self.node_stride)

    def pos_lines(self, pstart: np.ndarray, pend: np.ndarray) -> np.ndarray:
        return self._span_lines(self.pos_base, pstart, pend, self.pos_stride)

    def mass_lines(self, pstart: np.ndarray, pend: np.ndarray) -> np.ndarray:
        return self._span_lines(self.mass_base, pstart, pend, self.mass_stride)

    def acc_lines(self, pstart: np.ndarray, pend: np.ndarray) -> np.ndarray:
        return self._span_lines(self.acc_base, pstart, pend, self.acc_stride)

    def _range_lines(self, base: int, idx: np.ndarray, stride: int) -> np.ndarray:
        """Lines covered by objects ``idx`` of size ``stride`` at ``base``."""
        idx = np.atleast_1d(idx).astype(np.int64)
        first = (base + idx * stride) // self.line_size
        last = (base + (idx + 1) * stride - 1) // self.line_size
        if stride <= self.line_size:
            # At most two lines per object; build without Python loops.
            out = np.concatenate([first, last[last > first]])
            return out
        return np.concatenate(
            [np.arange(f, l + 1) for f, l in zip(first, last)]
        )

    def _span_lines(self, base: int, starts, ends, stride: int) -> np.ndarray:
        """Lines covered by the contiguous element ranges [starts, ends)."""
        starts = np.atleast_1d(starts).astype(np.int64)
        ends = np.atleast_1d(ends).astype(np.int64)
        pieces = []
        for s, e in zip(starts, ends):
            if e <= s:
                continue
            f = (base + s * stride) // self.line_size
            l = (base + e * stride - 1) // self.line_size
            pieces.append(np.arange(f, l + 1))
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)


#: Size (lines) of the rotating scratch window modelling traversal
#: bookkeeping memory (DFS stacks, active-target lists).  Small and reused,
#: so it is L1-resident — bookkeeping inflates access *counts*, not miss
#: rates, exactly as Table II's low store-miss-rates suggest.
_SCRATCH_LINES = 64
_SCRATCH_BASE = 0xC000_0000


class MemoryTraceRecorder(Recorder):
    """Collects a (line_address, is_write) stream in engine order."""

    def __init__(self, tree: Tree, style: str, layout: DataLayout | None = None) -> None:
        """``style`` names the schedule whose pairs are recorded, which fixes
        what one step of it touches.  ``"transposed"``: one source node
        against a target batch, processed by kernels that stream the batch
        once (ParaTreeT).  Any other: one target bucket against its sources,
        processed node at a time as in the classic DFS (ChaNGa), which
        re-touches the bucket for every source."""
        self.tree = tree
        self.layout = layout or DataLayout()
        self._transposed = style == "transposed"
        self._chunks: list[tuple[np.ndarray, bool]] = []
        self._scratch_cursor = 0

    def _scratch(self, n_lines: int) -> np.ndarray:
        """``n_lines`` successive lines of the rotating scratch window."""
        base = _SCRATCH_BASE // self.layout.line_size
        idx = (self._scratch_cursor + np.arange(n_lines)) % _SCRATCH_LINES
        self._scratch_cursor = (self._scratch_cursor + n_lines) % _SCRATCH_LINES
        return base + idx

    def _steps(self, sources: np.ndarray, targets: np.ndarray):
        """The schedule's steps in one call, as ``(sources, targets)``: the
        runs of one source node (transposed) or of one target bucket."""
        key = sources if self._transposed else targets
        bounds = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        for a, b in zip([0, *bounds], [*bounds, key.size]):
            if self._transposed:
                yield sources[a:a + 1], targets[a:b]
            else:
                yield sources[a:b], targets[a:a + 1]

    # -- Recorder interface ---------------------------------------------------
    def on_open_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        lay = self.layout
        for s, t in self._steps(sources, targets):
            self._load(lay.node_lines(s))
            self._load(lay.node_lines(t))
            # Traversal bookkeeping. Per-bucket walks push a stack entry per
            # visited node (8 B each); the transposed walk appends surviving
            # targets to compact active lists (4 B each).  Both live in small
            # reused buffers.
            if self._transposed:
                self._store(self._scratch(max(1, len(t) * 4 // lay.line_size)))
            else:
                self._store(self._scratch(max(1, len(s) * 8 // lay.line_size)))

    def on_node_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        lay = self.layout
        for s, t in self._steps(sources, targets):
            self._load(lay.node_lines(s))
            pos = lay.pos_lines(tree.pstart[t], tree.pend[t])
            acc = lay.acc_lines(tree.pstart[t], tree.pend[t])
            # Batched kernels stream the target batch once per step; the
            # node-at-a-time DFS re-touches the bucket per source node.
            for _ in range(1 if self._transposed else max(len(s), 1)):
                self._load(pos)
                self._load(acc)
                self._store(acc)

    def on_leaf_pairs(self, tree: Tree, sources: np.ndarray, targets: np.ndarray) -> None:
        lay = self.layout
        for s, t in self._steps(sources, targets):
            tgt_pos = lay.pos_lines(tree.pstart[t], tree.pend[t])
            tgt_acc = lay.acc_lines(tree.pstart[t], tree.pend[t])
            # One leaf at a time unless transposed: re-touch the target
            # bucket per source leaf.
            for one in [s] if self._transposed else s[:, None]:
                self._load(lay.pos_lines(tree.pstart[one], tree.pend[one]))
                self._load(lay.mass_lines(tree.pstart[one], tree.pend[one]))
                self._load(tgt_pos)
                self._load(tgt_acc)
                self._store(tgt_acc)

    # -- stream assembly --------------------------------------------------------
    def _load(self, lines: np.ndarray) -> None:
        if len(lines):
            self._chunks.append((lines, False))

    def _store(self, lines: np.ndarray) -> None:
        if len(lines):
            self._chunks.append((lines, True))

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        """The full stream as (line_addrs, is_write) arrays."""
        if not self._chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        addrs = np.concatenate([c[0] for c in self._chunks])
        writes = np.concatenate(
            [np.full(len(c[0]), c[1], dtype=bool) for c in self._chunks]
        )
        return addrs, writes

    @property
    def n_accesses(self) -> int:
        return sum(len(c[0]) for c in self._chunks)


def interleave_traces(
    traces: list[tuple[np.ndarray, np.ndarray]], chunk: int = 256
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round-robin-merge per-CPU traces into one stream with a cpu column.

    Emulates concurrent execution: each CPU advances ``chunk`` accesses per
    turn, which is what the shared L3 sees.
    """
    cursors = [0] * len(traces)
    addr_out: list[np.ndarray] = []
    write_out: list[np.ndarray] = []
    cpu_out: list[np.ndarray] = []
    live = True
    while live:
        live = False
        for cpu, (addrs, writes) in enumerate(traces):
            c = cursors[cpu]
            if c >= len(addrs):
                continue
            live = True
            e = min(c + chunk, len(addrs))
            addr_out.append(addrs[c:e])
            write_out.append(writes[c:e])
            cpu_out.append(np.full(e - c, cpu, dtype=np.int32))
            cursors[cpu] = e
    if not addr_out:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int32),
        )
    return np.concatenate(addr_out), np.concatenate(write_out), np.concatenate(cpu_out)


def replay_trace(
    hierarchy: CacheHierarchy,
    addrs: np.ndarray,
    writes: np.ndarray,
    cpus: np.ndarray | None = None,
    max_accesses: int | None = None,
) -> None:
    """Feed a line stream through the hierarchy (optionally truncated)."""
    if max_accesses is not None and len(addrs) > max_accesses:
        addrs = addrs[:max_accesses]
        writes = writes[:max_accesses]
        if cpus is not None:
            cpus = cpus[:max_accesses]
    access = hierarchy.access
    if cpus is None:
        for a, w in zip(addrs.tolist(), writes.tolist()):
            access(0, a, w)
    else:
        for a, w, c in zip(addrs.tolist(), writes.tolist(), cpus.tolist()):
            access(c, a, w)
