"""Set-associative LRU cache model with true tag state.

The cache-size sweeps of Figs. 14-15 only mean something if capacity and
associativity actually change hit rates, so this is a real tag store:
per-set LRU lists over line addresses. Lists stay tiny (``ways`` long),
making move-to-front cheap.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.config import CacheConfig
from repro.sim.stats import CacheStats


class Cache:
    """One cache level."""

    __slots__ = ("config", "name", "stats", "_sets", "_set_mask")

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._sets = [[] for _ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1

    def lookup(self, line: int) -> bool:
        """Access ``line``; returns True on hit. Misses allocate."""
        if self._set_mask >= 0 and not (self._set_mask & (self._set_mask + 1)):
            ways = self._sets[line & self._set_mask]
        else:  # non-power-of-two set count
            ways = self._sets[line % len(self._sets)]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        ways.insert(0, line)
        if len(ways) > self.config.ways:
            ways.pop()
        return False

    def contains(self, line: int) -> bool:
        """Non-mutating presence check (no stats, no LRU update)."""
        if self._set_mask >= 0 and (self._set_mask & (self._set_mask + 1)) == 0:
            index = line & self._set_mask
        else:
            index = line % len(self._sets)
        return line in self._sets[index]

    def warm(self, lines: Iterable[int]) -> None:
        """Pre-load lines without counting stats (test fixtures)."""
        for line in lines:
            if self._set_mask >= 0 and (self._set_mask & (self._set_mask + 1)) == 0:
                index = line & self._set_mask
            else:
                index = line % len(self._sets)
            ways = self._sets[index]
            if line not in ways:
                ways.insert(0, line)
                if len(ways) > self.config.ways:
                    ways.pop()

    def flush(self) -> None:
        """Invalidate all lines (stats are kept)."""
        for ways in self._sets:
            ways.clear()

    @property
    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cache({self.name}, {self.config.size_bytes}B, "
            f"{self.config.ways}-way, occ={self.occupancy})"
        )


def publish_cache_metrics(registry, level: str, hits: int,
                          misses: int) -> None:
    """Fold one level's per-kernel hit/miss delta into a registry.

    The ``sim_cache_accesses_total{level,outcome}`` counter is the
    registry-side view of :class:`~repro.sim.stats.CacheStats`; the
    memory hierarchy publishes deltas at kernel end.
    """
    counter = registry.counter("sim_cache_accesses_total",
                               "Cache accesses by level and outcome")
    if hits:
        counter.inc(hits, level=level, outcome="hit")
    if misses:
        counter.inc(misses, level=level, outcome="miss")
