"""Multi-level, multi-CPU cache hierarchy.

Mirrors the Stampede2 SKX node of the paper's Table II: per-CPU private L1D
(32 KB, 8-way) and L2 (1 MB, 16-way), one shared L3 (33 MB, 11-way).  The
lookup path is the usual one: L1 miss → L2, L2 miss → L3; every level
allocates on miss (write-allocate).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheLevel, CacheStats

__all__ = ["CacheHierarchy", "HierarchyStats"]


@dataclass
class HierarchyStats:
    """Aggregated per-level statistics across all CPUs."""

    l1: CacheStats
    l2: CacheStats
    l3: CacheStats

    def as_table_row(self) -> dict[str, float]:
        """The quantities Table II reports."""
        combined_store_misses = self.l2.store_misses  # misses that left L2
        return {
            "l1_loads": self.l1.load_accesses,
            "l1_stores": self.l1.store_accesses,
            "l1_load_miss_rate": self.l1.load_miss_rate,
            "l2_load_miss_rate": self.l2.load_miss_rate,
            "l3_load_miss_rate": self.l3.load_miss_rate,
            # Table II groups "(L1D & L2)" store miss rate: stores that miss
            # both private levels, relative to all store accesses.
            "l1l2_store_miss_rate": (
                combined_store_misses / self.l1.store_accesses
                if self.l1.store_accesses
                else 0.0
            ),
            "l3_store_miss_rate": self.l3.store_miss_rate,
        }


class CacheHierarchy:
    """``n_cpus`` private L1/L2 pairs in front of one shared L3."""

    def __init__(
        self,
        n_cpus: int,
        l1=(32 * 1024, 8),
        l2=(1024 * 1024, 16),
        l3=(33 * 1024 * 1024 // 64 // 11 * 11 * 64, 11),
        line_size: int = 64,
    ) -> None:
        if n_cpus < 1:
            raise ValueError("n_cpus must be >= 1")
        self.n_cpus = n_cpus
        self.line_size = line_size
        self.l1s = [CacheLevel(f"L1D#{c}", l1[0], l1[1], line_size) for c in range(n_cpus)]
        self.l2s = [CacheLevel(f"L2#{c}", l2[0], l2[1], line_size) for c in range(n_cpus)]
        self.l3 = CacheLevel("L3", l3[0], l3[1], line_size)

    def access(self, cpu: int, line_addr: int, is_write: bool) -> None:
        """One line access from ``cpu``; walks down on misses."""
        if self.l1s[cpu].access_line(line_addr, is_write):
            return
        if self.l2s[cpu].access_line(line_addr, is_write):
            return
        self.l3.access_line(line_addr, is_write)

    def stats(self) -> HierarchyStats:
        l1 = CacheStats()
        l2 = CacheStats()
        for a, b in zip(self.l1s, self.l2s):
            l1 = l1.merged(a.stats)
            l2 = l2.merged(b.stats)
        return HierarchyStats(l1=l1, l2=l2, l3=self.l3.stats)
