"""Reference loops for what is read off recorded interaction lists.

These are the per-node Python loops that :func:`repro.cache.fetch_statistics`,
:func:`repro.cache.stats.miss_attribution`,
:func:`repro.runtime.workload_from_traversal` and
``BucketLoadRecorder.per_particle_load`` were before they became array
passes, kept as oracles: each walks one target at a time through its
``PairList`` rows, in recording order, and must give the same bytes — the
same per-bucket float sums in the same order, the same dict insertion order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_fetch_statistics", "reference_miss_attribution",
           "reference_work_by_group", "reference_per_particle_load"]


def _rows(pairs):
    """``(target, sources)`` per recorded target, targets ascending."""
    for i, t in enumerate(pairs.targets.tolist()):
        yield t, pairs.sources[pairs.offsets[i]:pairs.offsets[i + 1]].tolist()


def _homes(decomp, n_processes):
    n_parts, n_subtrees = len(decomp.partitions), len(decomp.subtrees)
    part_proc = (np.arange(n_parts, dtype=np.int64) * n_processes) // n_parts
    st_proc = (np.arange(n_subtrees, dtype=np.int64) * n_processes) // n_subtrees
    return decomp.leaf_partition(), part_proc, st_proc


def reference_fetch_statistics(lists, decomp, groups, n_processes, workers_per_process):
    """(unique, thread-scope requests, bytes, touches) per process."""
    leaf_part, part_proc, st_proc = _homes(decomp, n_processes)
    proc_groups = [set() for _ in range(n_processes)]
    thread_groups = [set() for _ in range(n_processes)]
    bytes_in, touches = np.zeros(n_processes), np.zeros(n_processes)
    for rank, (leaf, visited) in enumerate(_rows(lists["open"])):
        proc = int(part_proc[leaf_part[leaf]])
        thread = rank % max(workers_per_process, 1)
        for node in visited:
            g = int(groups.group_of_node[node])
            if g < 0 or int(st_proc[groups.group_subtree[g]]) == proc:
                continue
            touches[proc] += 1
            if g not in proc_groups[proc]:
                proc_groups[proc].add(g)
                bytes_in[proc] += groups.group_bytes[g]
            thread_groups[proc].add((thread, g))
    return (np.array([len(s) for s in proc_groups], dtype=np.float64),
            np.array([len(s) for s in thread_groups], dtype=np.float64),
            bytes_in, touches)


def reference_miss_attribution(tree, lists, decomp, groups, n_processes):
    """(touches, unique groups, bytes) per partition, the (partition,
    subtree) touch matrix and the per-node remote touches."""
    leaf_part, part_proc, st_proc = _homes(decomp, n_processes)
    n_parts, n_subtrees = len(decomp.partitions), len(decomp.subtrees)
    touches = np.zeros(n_parts, dtype=np.int64)
    unique = [set() for _ in range(n_parts)]
    bytes_in = np.zeros(n_parts)
    part_subtree = np.zeros((n_parts, n_subtrees), dtype=np.int64)
    node_remote = np.zeros(tree.n_nodes, dtype=np.int64)
    for leaf, visited in _rows(lists["open"]):
        part = int(leaf_part[leaf])
        for node in visited:
            g = int(groups.group_of_node[node])
            if g < 0:
                continue
            st = int(groups.group_subtree[g])
            if int(st_proc[st]) == int(part_proc[part]):
                continue
            touches[part] += 1
            part_subtree[part, st] += 1
            node_remote[node] += 1
            if g not in unique[part]:
                unique[part].add(g)
                bytes_in[part] += groups.group_bytes[g]
    return touches, np.array([len(s) for s in unique]), bytes_in, part_subtree, node_remote


def reference_work_by_group(tree, lists, groups, cost):
    """``{leaf: work_by_group}`` summed opening tests first, then centroid
    approximations, then exact leaf interactions."""
    counts = tree.pend - tree.pstart
    rows = {kind: dict(_rows(lists[kind])) for kind in ("open", "node", "leaf")}
    out = {}
    for leaf in tree.leaf_indices.tolist():
        nb, wbg = int(counts[leaf]), {}
        for node in rows["open"].get(leaf, ()):
            g = int(groups.group_of_node[node])
            wbg[g] = wbg.get(g, 0.0) + cost.c_open
        for node in rows["node"].get(leaf, ()):
            g = int(groups.group_of_node[node])
            wbg[g] = wbg.get(g, 0.0) + cost.c_pn * nb
        for src in rows["leaf"].get(leaf, ()):
            g = int(groups.group_of_node[src])
            wbg[g] = wbg.get(g, 0.0) + cost.c_pp * nb * int(counts[src])
        out[leaf] = wbg
    return out


def reference_per_particle_load(tree, work):
    """Each bucket's work spread evenly over its particles."""
    out = np.zeros(tree.n_particles)
    for leaf in tree.leaf_indices:
        s, e = int(tree.pstart[leaf]), int(tree.pend[leaf])
        if e > s and work[leaf] > 0:
            out[s:e] = work[leaf] / (e - s)
    return out
