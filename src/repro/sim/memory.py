"""Global-memory address space and the cache hierarchy walker.

Kernels never fabricate raw addresses; they allocate named
:class:`Region` objects from a :class:`MemoryMap` (one per kernel
environment) and issue loads/stores as ``(region, element indices)``.
The hierarchy converts lane indices to cache lines, walks L1 -> L2 ->
(L3) -> DRAM level by level, and returns the instruction's latency
under the coalescing model of DESIGN.md §5: worst-level latency plus a
per-extra-line throughput charge.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.obs.profile import get_profiler
from repro.obs.provenance import get_digester
from repro.sim.cache import Cache, publish_cache_metrics
from repro.sim.config import GPUConfig
from repro.sim.stats import CacheStats

# The process-global observers, bound once: ``access`` runs per warp
# memory instruction.
_PROFILER = get_profiler()
_DIGESTER = get_digester()


class Region:
    """A named, contiguous global-memory allocation."""

    __slots__ = ("name", "base", "itemsize", "length")

    def __init__(self, name: str, base: int, itemsize: int, length: int) -> None:
        self.name = name
        self.base = base
        self.itemsize = itemsize
        self.length = length

    @property
    def nbytes(self) -> int:
        """Size of the region in bytes."""
        return self.itemsize * self.length

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        return self.base + index * self.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Region({self.name!r}, base=0x{self.base:x}, "
            f"itemsize={self.itemsize}, length={self.length})"
        )


class MemoryMap:
    """Sequential allocator of :class:`Region` objects.

    Regions are aligned to 256 bytes and padded by one line so that two
    regions never share a cache line — which keeps the cache model's
    attribution of hits per array honest.
    """

    ALIGN = 256

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, length: int, itemsize: int = 8) -> Region:
        """Allocate ``length`` elements of ``itemsize`` bytes."""
        if length < 0 or itemsize <= 0:
            raise ConfigError("region length must be >= 0 and itemsize > 0")
        if name in self._regions:
            raise ConfigError(f"region {name!r} already allocated")
        region = Region(name, self._next, itemsize, length)
        nbytes = max(1, region.nbytes)
        self._next += (nbytes + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        self._next += self.ALIGN  # guard gap
        self._regions[name] = region
        return region

    def alloc_like(self, name: str, array: np.ndarray) -> Region:
        """Allocate a region shaped like a numpy array."""
        return self.alloc(name, int(array.size), int(array.itemsize))

    def __getitem__(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def regions(self) -> List[Region]:
        """All allocated regions in allocation order."""
        return list(self._regions.values())


class MemoryHierarchy:
    """Per-core L1s over a shared L2 (and optional L3) over DRAM."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self._line_shift = config.l1.line_bytes.bit_length() - 1
        self.l1: List[Cache] = [
            Cache(config.l1, f"L1[{core}]") for core in range(config.num_cores)
        ]
        self.l2: Optional[Cache] = (
            Cache(config.l2, "L2") if config.l2 is not None else None
        )
        self.l3: Optional[Cache] = (
            Cache(config.l3, "L3") if config.l3 is not None else None
        )
        self.dram_accesses = 0
        self._dram_free = 0
        self._timing = (
            config.l1.hit_latency,
            config.dram_latency_cycles,
            config.dram_service_cycles,
            config.line_throughput,
        )
        #: The shared levels below the L1s, in walk order, with their
        #: hit latencies.
        self._shared = tuple(
            (cache, cache.config.hit_latency)
            for cache in (self.l2, self.l3) if cache is not None)
        self._line_maps: Dict[Region, np.ndarray] = {}
        if self.l2 is not None and config.l2.line_bytes != config.l1.line_bytes:
            raise ConfigError("all cache levels must share one line size")
        if self.l3 is not None and config.l3.line_bytes != config.l1.line_bytes:
            raise ConfigError("all cache levels must share one line size")

    # ------------------------------------------------------------------
    def lines_for(self, region: Region, indices: np.ndarray) -> List[int]:
        """Ascending unique cache lines touched by ``region[indices]``."""
        if indices.size == 1:
            # Single-lane accesses are the most common kind (S_vm's
            # hub tails): plain integer arithmetic beats any gather.
            return [(region.base + indices.item() * region.itemsize)
                    >> self._line_shift]
        line_map = self._line_maps.get(region)
        if line_map is None:
            # The line of every element of the region: built on first
            # use, then kept for this hierarchy's lifetime.
            addrs = (region.base
                     + np.arange(region.length, dtype=np.int64)
                     * region.itemsize)
            line_map = self._line_maps[region] = addrs >> self._line_shift
        return sorted(set(line_map[indices].tolist()))

    def access(
        self, core_id: int, region: Optional[Region],
        indices: Optional[np.ndarray], now: int = 0,
        lines: Optional[List[int]] = None,
    ) -> Tuple[int, int]:
        """Charge a coalesced warp access at time ``now``.

        Walks L1 -> L2 -> (L3) -> DRAM with the lines of
        ``region[indices]`` — or with ``lines``, the ascending unique
        lines, when the caller compiled them already (``region`` and
        ``indices`` are then unused). Each level takes the lines the
        level above missed, in order. Returns ``(latency_cycles,
        num_lines)``: the worst per-line latency plus
        ``line_throughput`` cycles for each line beyond the first
        (memory pipeline serialization).

        DRAM fills additionally queue behind a shared memory-controller
        timeline (``dram_service_cycles`` occupancy per line), so total
        DRAM *traffic* costs time even when individual latencies are
        hidden by warp-level parallelism. This is the bandwidth term
        that makes graph processing memory-intensive (Fig. 12) and
        charges S_em for its doubled edge reads.
        """
        if not 0 <= core_id < len(self.l1):
            raise SimulationError(f"core id {core_id} out of range")
        profiler = _PROFILER
        prof_on = profiler.enabled
        if prof_on:
            start = perf_counter()
            fills = self.dram_accesses
        if lines is None:
            lines = self.lines_for(region, indices)
        nlines = len(lines)
        total = 0
        if nlines:
            l1_lat, dram_lat, service, line_tp = self._timing
            misses = self.l1[core_id].access(lines)
            worst = l1_lat if len(misses) < nlines else 0
            for cache, latency in self._shared:
                if not misses:
                    break
                missed = cache.access(misses)
                if len(missed) < len(misses) and latency > worst:
                    worst = latency
                misses = missed
            if misses:
                # The controller serves fills back to back: the first
                # starts when both it and the request are ready, and
                # the last one waits longest.
                count = len(misses)
                self.dram_accesses += count
                first = self._dram_free
                if now > first:
                    first = now
                self._dram_free = first + count * service
                latency = first + (count - 1) * service - now + dram_lat
                if latency > worst:
                    worst = latency
            total = worst + (nlines - 1) * line_tp
            if _DIGESTER.enabled:
                _DIGESTER.note_mem(now, core_id, nlines, total)
        if prof_on:
            profiler.add("mem/access", perf_counter() - start)
            if self.dram_accesses > fills:
                # Count-only phase: the fill *rate* is what a
                # vectorized memory model must reproduce.
                profiler.add("mem/dram", 0.0,
                             calls=self.dram_accesses - fills)
        return total, nlines

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, CacheStats]:
        """Aggregate per-level stats (L1s merged across cores)."""
        merged: Dict[str, CacheStats] = {}
        l1_total = CacheStats()
        for cache in self.l1:
            l1_total.merge(cache.stats)
        merged["L1"] = l1_total
        if self.l2 is not None:
            merged["L2"] = self.l2.stats
        if self.l3 is not None:
            merged["L3"] = self.l3.stats
        return merged

    def cache_counts(self) -> Dict[str, Tuple[int, int]]:
        """Cumulative ``(hits, misses)`` per merged level.

        The delta baseline for per-kernel metrics publication — cache
        tag state (and so its counters) persists across kernels on one
        GPU, but metrics want per-kernel increments.
        """
        return {name: (cs.hits, cs.misses)
                for name, cs in self.cache_stats().items()}

    def cache_deltas(self, before: Optional[Dict[str, Tuple[int, int]]]
                     ) -> Dict[str, Tuple[int, int]]:
        """Per-level ``(hits, misses)`` since the ``before`` snapshot of
        :meth:`cache_counts` (cache tag state and counters persist
        across kernels; per-kernel views want the increments)."""
        before = before or {}
        deltas = {}
        for name, (hits, misses) in self.cache_counts().items():
            prev_hits, prev_misses = before.get(name, (0, 0))
            deltas[name] = (hits - prev_hits, misses - prev_misses)
        return deltas

    def publish_metrics(self, registry, before=None,
                        dram_accesses: int = 0) -> None:
        """Fold this kernel's memory traffic into a metrics registry.

        ``before`` is the :meth:`cache_counts` snapshot taken at kernel
        start; counters receive only the delta.
        """
        registry.counter(
            "sim_dram_accesses_total", "DRAM line fills"
        ).inc(dram_accesses)
        for name, (hits, misses) in self.cache_deltas(before).items():
            publish_cache_metrics(registry, name, hits, misses)

    def begin_kernel(self) -> None:
        """Reset the controller timeline — kernel clocks start at 0."""
        self._dram_free = 0

    def flush(self) -> None:
        """Invalidate every level (between unrelated kernels)."""
        for cache in self.l1:
            cache.flush()
        if self.l2 is not None:
            self.l2.flush()
        if self.l3 is not None:
            self.l3.flush()
