"""A set-associative, LRU, write-allocate cache level."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CacheStats", "CacheLevel"]


@dataclass
class CacheStats:
    load_accesses: int = 0
    load_misses: int = 0
    store_accesses: int = 0
    store_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.load_accesses + self.store_accesses

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def load_miss_rate(self) -> float:
        return self.load_misses / self.load_accesses if self.load_accesses else 0.0

    @property
    def store_miss_rate(self) -> float:
        return self.store_misses / self.store_accesses if self.store_accesses else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.load_accesses + other.load_accesses,
            self.load_misses + other.load_misses,
            self.store_accesses + other.store_accesses,
            self.store_misses + other.store_misses,
        )

class CacheLevel:
    """One cache level: ``size_bytes`` / ``ways`` / ``line_size`` geometry,
    true LRU replacement, write-allocate (stores behave like loads for
    allocation, counted separately)."""

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int = 64) -> None:
        if size_bytes % (ways * line_size) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line ({ways}*{line_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.n_sets = size_bytes // (ways * line_size)
        # Per set: list of tags, most-recently-used last.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access_line(self, line_addr: int, is_write: bool) -> bool:
        """Access one line (``line_addr`` is already address // line_size).

        Returns True on hit.  Misses allocate (evicting LRU).
        """
        s = self._sets[line_addr % self.n_sets]
        tag = line_addr // self.n_sets
        st = self.stats
        if is_write:
            st.store_accesses += 1
        else:
            st.load_accesses += 1
        try:
            s.remove(tag)
            s.append(tag)
            return True
        except ValueError:
            pass
        if is_write:
            st.store_misses += 1
        else:
            st.load_misses += 1
        s.append(tag)
        if len(s) > self.ways:
            s.pop(0)
        return False

    def contents(self) -> set[int]:
        """All resident line addresses (for inclusion/sanity tests)."""
        out: set[int] = set()
        for idx, s in enumerate(self._sets):
            for tag in s:
                out.add(tag * self.n_sets + idx)
        return out
