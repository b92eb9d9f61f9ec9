"""Level-synchronous batched traversal over work-bounded frontier segments.

Where :class:`~repro.core.topdown.TransposedTraverser` walks source nodes
one at a time (each against a target batch), this engine keeps the active
frontier as flat ``(source, target)`` index arrays and advances all pairs
of a *segment* one level per step.  Every visitor decision then happens in
a handful of numpy calls (see :mod:`repro.trees.kernels`) over the segment
instead of one Python-level call per tree node.

The visit *set* is identical to the other engines (same pruning semantics);
only the batching differs.  Within a level the engine processes closed
pairs, then leaf pairs, then expands internal pairs in place — so the pair
arrays are **target-major** at every level: all pairs of one target bucket
are contiguous, in an order that is a stable function of that target's
pairs one level up and of nothing else.

That is what bounds the working set without changing a bit.  A frontier may
be cut *between two targets* anywhere: each piece then holds, for every
target in it, exactly the pair subsequence the whole frontier held — the
same interaction list — and the kernels reduce each row's list once per
call (see "Interaction lists" in :mod:`repro.trees.kernels`), so a target's
rows see the same additions in the same order whichever other targets share
the call.  The engine cuts in two places, each against one module constant:

* a segment whose expansion would exceed :data:`SEGMENT_PAIRS` pairs is
  split *before* it is expanded, and the pieces (views of the parent, never
  copies) wait on a stack while the first is walked to the bottom —
  depth-first over segments, breadth-first inside one;
* ``node_pairs``/``leaf_pairs`` receive slices of at most
  :data:`SLICE_ROWS` *expanded* particle rows (target rows of the closed
  pairs, target × source rows of the leaf pairs).

A single target whose own pairs exceed a bound cannot be cut and runs as
one piece.  The same argument makes the engine bit-identical across exec
backends and worker counts: chunking targets is one more cut.

:func:`walk_frontier` is that walk for any target-major frontier.  This
engine starts it from one ``(root, target)`` pair per target; the
up-and-down engine (:mod:`repro.core.upanddown`) starts it once per round
from the unvisited siblings along every target's path to the root.
"""

from __future__ import annotations

import functools

import numpy as np

from ..trees import Tree
from .traverser import Recorder, TraversalStats, Traverser, register_traverser
from .util import ranges_to_indices
from .visitor import Visitor

__all__ = ["BatchedTraverser", "walk_frontier", "SEGMENT_PAIRS", "SLICE_ROWS"]

#: Most pairs one frontier segment holds after expansion, and most expanded
#: particle rows one ``node_pairs``/``leaf_pairs`` call receives.  Constants,
#: not options: results do not depend on them (tests/test_segments.py).  Time
#: and memory do — every kernel temporary is one float64 per row, ~25 of
#: them live at once: at 16 384 rows that is 128 KiB each and ~3 MiB in
#: all, resident in L2/L3 and reused by the allocator, where one whole level
#: of the frontier is 56-87 MB per temporary, mapped and page-faulted afresh
#: on every call.  Twice the budget reads ~4 % faster for 6 % more peak RSS,
#: four times ~8 % for 17 % and past the traced-temporary bound of
#: tests/test_segments.py; docs/benchmarking.md has the table.
SEGMENT_PAIRS = 16_384
SLICE_ROWS = 16_384


@functools.cache
def _prime_allocator() -> None:
    """Once per process, free one block several slices long.

    glibc adapts its mmap and heap-trim thresholds to the largest block a
    process has freed (``mallopt(3)``, "dynamic mmap threshold").  A process
    that has only ever freed small blocks hands this engine's 128 KiB
    temporaries back to the kernel on every call and page-faults them in
    again on the next — 1.45 s instead of 0.85 s for the same traversal,
    depending on nothing but what ran earlier in the process (or where the
    heap top happens to be).  Any long-running process reaches the other
    regime on its own; this puts it there before the first slice.  The
    block is never touched, so it costs two system calls and no memory, and
    other allocators ignore it."""
    np.empty(8 << 20, dtype=np.uint8)      # 64 float64 temporaries of one slice


def cut_at_targets(targets: np.ndarray, weights: np.ndarray, budget: int) -> list[int]:
    """Boundaries ``[0, ..., len(targets)]`` of the fewest greedy pieces of a
    target-major pair array such that every piece ends where the target
    changes and weighs at most ``budget`` — or is a single target."""
    n = targets.size
    cum = np.cumsum(weights)
    if cum[-1] <= budget:
        return [0, n]
    ends = np.append(np.flatnonzero(targets[1:] != targets[:-1]) + 1, n)
    run_cum = cum[ends - 1]
    cuts = [0]
    done, base = 0, 0
    while done < ends.size:
        fit = int(np.searchsorted(run_cum, base + budget, side="right"))
        done = max(fit, done + 1)
        cuts.append(int(ends[done - 1]))
        base = run_cum[done - 1]
    return cuts


def walk_frontier(tree: Tree, visitor: Visitor, sources: np.ndarray, targets: np.ndarray,
                  stats: TraversalStats, recorder: Recorder | None,
                  target_rows: np.ndarray | None = None) -> None:
    """Walk the target-major pair frontier ``(sources, targets)`` to the
    bottom of the tree, depth-first over segments and breadth-first inside
    one, counting into ``stats``.  A target's pairs at one level meet the
    visitor only after all its pairs of the levels above have.

    Sources are nodes of ``tree``; a target is whatever the visitor's hooks
    take it for.  The walk itself needs only each target's row count (for
    ``stats`` and the slice budget): ``target_rows[t]``, by default the
    particle count of tree node ``t``."""
    _prime_allocator()
    first_child = tree.first_child
    n_children = tree.n_children
    counts = tree.pend - tree.pstart
    target_rows = counts if target_rows is None else target_rows

    def in_slices(kind, sources, targets, rows):
        """``visitor.<kind>_pairs`` over slices of at most SLICE_ROWS."""
        if recorder is not None:
            getattr(recorder, f"on_{kind}_pairs")(tree, sources, targets)
        hook = getattr(visitor, f"{kind}_pairs")
        cuts = cut_at_targets(targets, rows, SLICE_ROWS)
        for a, b in zip(cuts, cuts[1:]):
            hook(tree, sources[a:b], targets[a:b])

    def advance(S, T):
        """One level of one segment: MAC, node and leaf work; returns
        the internal pairs still to expand (with their child counts)."""
        # one source summary is loaded per pair
        stats.nodes_visited += int(S.size)
        stats.opens += int(S.size)
        if recorder is not None:
            recorder.on_open_pairs(tree, S, T)
        mask = np.asarray(visitor.open_pairs(tree, S, T), dtype=bool)

        closed_s, closed_t = S[~mask], T[~mask]
        if closed_s.size:
            rows = target_rows[closed_t]
            stats.node_interactions += int(closed_s.size)
            stats.pn_interactions += int(rows.sum())
            in_slices("node", closed_s, closed_t, rows)

        open_s, open_t = S[mask], T[mask]
        leaf_mask = first_child[open_s] == -1
        leaf_s, leaf_t = open_s[leaf_mask], open_t[leaf_mask]
        if leaf_s.size:
            rows = counts[leaf_s] * target_rows[leaf_t]
            stats.leaf_interactions += int(leaf_s.size)
            stats.pp_interactions += int(rows.sum())
            in_slices("leaf", leaf_s, leaf_t, rows)

        int_s = open_s[~leaf_mask]
        return int_s, open_t[~leaf_mask], n_children[int_s]

    # Unexpanded internal pairs, first piece on top.
    stack = [advance(sources, targets)]
    while stack:
        int_s, int_t, nc = stack.pop()
        if not int_s.size:
            continue
        cuts = cut_at_targets(int_t, nc, SEGMENT_PAIRS)
        if len(cuts) > 2:
            stack.extend((int_s[a:b], int_t[a:b], nc[a:b])
                         for a, b in zip(cuts[-2::-1], cuts[:0:-1]))
            continue
        first = first_child[int_s]
        stack.append(advance(ranges_to_indices(first, first + nc),
                             np.repeat(int_t, nc)))


class BatchedTraverser(Traverser):
    """Breadth-first over (source, target) pair segments of bounded work."""

    name = "batched"

    def _traverse(
        self,
        tree: Tree,
        visitor: Visitor,
        targets: np.ndarray | None = None,
        recorder: Recorder | None = None,
    ) -> TraversalStats:
        targets = self._resolve_targets(tree, targets)
        stats = TraversalStats(targets=len(targets))
        if targets.size:
            walk_frontier(tree, visitor, np.full(targets.size, tree.root, dtype=np.int64),
                          targets.astype(np.int64, copy=False), stats, recorder)
        return stats


register_traverser(BatchedTraverser.name, BatchedTraverser, top_down=True)
