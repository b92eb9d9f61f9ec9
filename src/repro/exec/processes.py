"""Process pool backend: zero-copy shared arrays, partition-ordered reduce.

The parent packs the tree topology, particle fields, and the visitor's
shared arrays into one :class:`~repro.exec.shm.ShmArena`
(``multiprocessing.shared_memory``).  Workers attach read-only views — no
serialisation of the large SoA data ever happens — rebuild the
:class:`~repro.trees.Tree` and a worker-local visitor over those views
(``exec_rebuild``), traverse their chunk, and send back only the small
per-chunk outputs (``exec_collect``), stats, and fork recorders.

The parent then reduces **in chunk order** (``exec_apply`` + stats merge +
recorder absorb), never completion order — with disjoint per-chunk target
rows and serial per-target evaluation order inside each chunk, that makes
the result bit-identical to a serial run for any worker count.

Each worker keeps the trees it attached in a small per-segment LRU
(:func:`_attach_tree`), so a run over the same arena attaches once; the
serve executor's process workers reach the resident tree the same way.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from typing import Any

import numpy as np

from ..core.traverser import Recorder
from ..trees import Tree
from .backend import ChunkJob, ChunkResult, ExecutionBackend, register_backend
from .shm import ShmArena, attach_arena

__all__ = ["ProcessBackend"]

_TREE_FIELDS = (
    "parent", "first_child", "n_children", "pstart", "pend",
    "box_lo", "box_hi", "level", "key",
)

#: worker-side LRU cache of attached arenas/trees, keyed by shm segment
#: name: most-recently-used at the end, evictions from the front
_WORKER_TREES: OrderedDict[str, tuple[Any, Tree, dict[str, np.ndarray]]] = OrderedDict()
_WORKER_CACHE_LIMIT = 2


def _attach_tree(handle, meta) -> tuple[Tree, dict[str, np.ndarray], bool]:
    """Attach (or reuse) the arena named in ``handle`` and rebuild the tree.

    Rebuilding is zero-copy: every Tree/ParticleSet array is a read-only
    view straight into the shared segment (``ascontiguousarray`` on a
    contiguous matching-dtype view is the identity).

    The third element of the return reports whether the per-segment worker
    tree cache served this attach (True = hit); the parent aggregates it
    into the ``exec.cache.*`` metrics.
    """
    name = handle[0]
    cached = _WORKER_TREES.get(name)
    if cached is not None:
        _WORKER_TREES.move_to_end(name)
        return cached[1], cached[2], True
    while len(_WORKER_TREES) >= _WORKER_CACHE_LIMIT:
        _, (old_arena, _, _) = _WORKER_TREES.popitem(last=False)  # true LRU
        old_arena.close()
    arena = attach_arena(handle)
    from ..particles import ParticleSet

    part_fields = {
        k[len("part."):]: v for k, v in arena.arrays.items() if k.startswith("part.")
    }
    particles = ParticleSet.from_arrays(part_fields)
    tree = Tree(
        particles,
        *[arena.arrays[f"tree.{f}"] for f in _TREE_FIELDS],
        tree_type=meta["tree_type"],
        bucket_size=meta["bucket_size"],
    )
    vis_arrays = {
        k[len("vis."):]: v for k, v in arena.arrays.items() if k.startswith("vis.")
    }
    _WORKER_TREES[name] = (arena, tree, vis_arrays)
    return tree, vis_arrays, False


def _worker_run(handle, meta, job: ChunkJob, exec_faults, chunk_index: int,
                chunk: np.ndarray, fork: Recorder | None, attempt: int) -> ChunkResult:
    """Module-level worker entry point (must be picklable by reference).

    Ships the worker-clock ``t0``/``t1`` back (not just the duration): the
    parent needs real endpoints to place the span on the trace timeline,
    and it estimates the worker→parent clock offset from its own
    submit/collect window rather than re-anchoring at collection time.
    """
    t0 = time.perf_counter()
    tree, vis_arrays, cache_hit = _attach_tree(handle, meta)
    if exec_faults is not None:
        # injected after attach so a kill leaves a real mid-chunk corpse:
        # arena mapped, pool worker gone, parent left holding the future
        exec_faults.apply_in_worker(chunk_index, attempt, in_process=True)
    return job.run(tree, vis_arrays, chunk, fork, t0, os.getpid(), cache_hit)


class ProcessBackend(ExecutionBackend):
    """Run chunks on a persistent fork-context :class:`ProcessPoolExecutor`."""

    name = "processes"
    supervisor_cancels = False
    worker_label = "pid-{worker}"

    def __init__(self, workers: int | None = None, start_method: str | None = None,
                 supervise: Any = True, exec_faults=None) -> None:
        super().__init__(workers, supervise=supervise, exec_faults=exec_faults)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method

    def _parent_worker(self) -> int:
        return os.getpid()

    def _pack_arena(self, tree: Tree, vis_arrays: dict[str, np.ndarray]) -> tuple[ShmArena, dict]:
        """Pack ``tree`` (topology + particle fields) and ``vis_arrays``
        into one segment named for this process and pool generation."""
        shared: dict[str, np.ndarray] = {}
        for f in _TREE_FIELDS:
            shared[f"tree.{f}"] = getattr(tree, f)
        for f in tree.particles.field_names:
            shared[f"part.{f}"] = tree.particles[f]
        for k, v in vis_arrays.items():
            shared[f"vis.{k}"] = v
        meta = {"tree_type": tree.tree_type, "bucket_size": tree.bucket_size}
        arena = ShmArena(
            shared, name_prefix=f"repro-{os.getpid()}-g{self._generation}"
        )
        return arena, meta

    def _submitter(self, job, tree, arrays, chunks, fork, shared_cache):
        arena, meta = self._pack_arena(tree, arrays)
        exec_faults = self.exec_faults

        def submit(i: int, attempt: int):
            return self._ensure_pool().submit(
                _worker_run, arena.handle, meta, job, exec_faults, i,
                chunks[i], fork(i), attempt,
            )

        return submit, arena.dispose


register_backend(ProcessBackend.name, ProcessBackend)
