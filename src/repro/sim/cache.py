"""Set-associative LRU cache model with true tag state.

The cache-size sweeps of Figs. 14-15 only mean something if capacity and
associativity actually change hit rates, so this is a real tag store:
per-set LRU lists over line addresses. Lists stay tiny (``ways`` long),
making move-to-front cheap.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.sim.config import CacheConfig
from repro.sim.stats import CacheStats


class Cache:
    """One cache level."""

    __slots__ = ("config", "name", "stats", "_sets", "_num_sets", "_ways")

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets = [[] for _ in range(self._num_sets)]

    def access(self, lines: Sequence[int]) -> List[int]:
        """Look up ``lines`` in order; returns the missed ones, in order.

        Each line is one LRU access: a hit moves it to the front of its
        set, a miss allocates it there and evicts the set's last line
        when the set is full. Hit and miss counts are updated once per
        call.
        """
        sets = self._sets
        num_sets = self._num_sets
        max_ways = self._ways
        misses = []
        for line in lines:
            ways = sets[line % num_sets]
            if line in ways:
                if ways[0] != line:
                    ways.remove(line)
                    ways.insert(0, line)
            else:
                misses.append(line)
                ways.insert(0, line)
                if len(ways) > max_ways:
                    ways.pop()
        stats = self.stats
        stats.misses += len(misses)
        stats.hits += len(lines) - len(misses)
        return misses

    def lookup(self, line: int) -> bool:
        """Access ``line``; returns True on hit. Misses allocate."""
        return not self.access((line,))

    def contains(self, line: int) -> bool:
        """Non-mutating presence check (no stats, no LRU update)."""
        return line in self._sets[line % self._num_sets]

    def warm(self, lines: Iterable[int]) -> None:
        """Pre-load lines without counting stats (test fixtures)."""
        for line in lines:
            ways = self._sets[line % self._num_sets]
            if line not in ways:
                ways.insert(0, line)
                if len(ways) > self._ways:
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

