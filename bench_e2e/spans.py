"""In-memory span recorder for the traced run (the benchmark's own; not
``repro.obs``).

A span is ``name, start, end, parent, rep``: ``parent`` is the index of
the span that was open when this one started, ``rep`` the timed
repetition it belongs to (``-1`` = set-up, warm-up or a one-off probe).
Self time is a span's duration minus the part its children cover.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time


class _Span:
    __slots__ = ("rec", "row")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        stack = rec._stack
        self.row = [name, 0.0, 0.0, stack[-1] if stack else -1, rec.rep]

    def __enter__(self) -> None:
        rec = self.rec
        rec._stack.append(len(rec.rows))
        rec.rows.append(self.row)
        self.row[1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.row[2] = time.perf_counter()
        self.rec._stack.pop()


class Recorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.rep = -1
        # the recorder's own cost: one empty span, measured in this run
        with self.span("bench.floor"):
            pass
        self.floor_s = self.rows[0][2] - self.rows[0][1]

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> list[float]:
        """Self time of every span, aligned with ``rows``."""
        out = [row[2] - row[1] for row in self.rows]
        for row in self.rows:
            if row[3] >= 0:
                out[row[3]] -= row[2] - row[1]
        return out

    def samples(self, name: str, timed_only: bool = True) -> list[float]:
        """Self times of the spans called ``name`` (timed repetitions only
        unless ``timed_only`` is off)."""
        selfs = self.self_times()
        return [selfs[i] for i, row in enumerate(self.rows)
                if row[0] == name and (row[4] >= 0 or not timed_only)]

    def layer_sums(self, root: str) -> tuple[list[float], list[float]]:
        """Per timed ``root`` span: its duration, and the summed self time
        of everything below it (the root's own self time is the glue)."""
        selfs = self.self_times()
        owner = [-1] * len(self.rows)   # enclosing ``root`` span of each span
        for i, row in enumerate(self.rows):      # parents precede children
            p = row[3]
            if p >= 0:
                owner[i] = p if self.rows[p][0] == root else owner[p]
        roots = [i for i, row in enumerate(self.rows)
                 if row[0] == root and row[4] >= 0]
        below = dict.fromkeys(roots, 0.0)
        for i, o in enumerate(owner):
            if o in below:
                below[o] += selfs[i]
        return ([self.rows[i][2] - self.rows[i][1] for i in roots],
                [below[i] for i in roots])

    def dump(self, path) -> None:
        t0 = self.rows[0][1]
        doc = {"workload": self.workload, "floor_s": self.floor_s,
               "spans": [{"name": r[0], "start": r[1] - t0, "end": r[2] - t0,
                          "parent": r[3], "rep": r[4]} for r in self.rows]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
