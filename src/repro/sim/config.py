"""Simulator hardware configurations.

``GPUConfig.vortex_paper()`` reproduces the evaluation setup of Section V:
2 sockets x 3 cores, 32 warps/core, 32 threads/warp, 64KB L1 and 1MB L2 —
with the SparseWeaver penalty (L1 reduced to 32KB to pay for 512 ST/DT
entries) applied by :meth:`GPUConfig.with_weaver_penalty`.

``vortex_bench()`` is a smaller preset the Python engine simulates in
seconds; all benchmarks use it unless told otherwise. ``ampere_like`` and
``ada_like`` stand in for the paper's Nvidia A30 / RTX 4090 measurements
(Figs. 3-4): more resident warps, larger caches, faster memory clocking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: capacity, line size, associativity, hit latency."""

    size_bytes: int
    line_bytes: int = 64
    ways: int = 8
    hit_latency: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("cache size must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("cache line size must be a positive power of two")
        if self.ways <= 0:
            raise ConfigError("cache associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ConfigError(
                "cache size must be a multiple of line_bytes * ways"
            )
        if self.hit_latency < 1:
            raise ConfigError("hit latency must be at least 1 cycle")

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class GPUConfig:
    """Full simulator configuration.

    ``mem_freq_ratio`` is the "n" of Fig. 12: the GPU core clock is ``n``
    times the DRAM clock, so DRAM latency in core cycles scales by ``n``.
    """

    num_sockets: int = 2
    cores_per_socket: int = 3
    warps_per_core: int = 32
    threads_per_warp: int = 32
    l1: CacheConfig = CacheConfig(64 * KB)
    l2: Optional[CacheConfig] = CacheConfig(1 * MB, hit_latency=20)
    l3: Optional[CacheConfig] = None
    dram_latency: int = 100
    mem_freq_ratio: int = 1
    line_throughput: int = 2
    dram_service: int = 4
    alu_latency: int = 1
    shmem_latency: int = 2
    atomic_extra: int = 2
    weaver_table_latency: int = 2
    weaver_entries: int = 512
    store_latency: int = 1
    eghw_mlp: int = 4

    def __post_init__(self) -> None:
        for field, value in (
            ("num_sockets", self.num_sockets),
            ("cores_per_socket", self.cores_per_socket),
            ("warps_per_core", self.warps_per_core),
            ("threads_per_warp", self.threads_per_warp),
            ("dram_latency", self.dram_latency),
            ("mem_freq_ratio", self.mem_freq_ratio),
            ("alu_latency", self.alu_latency),
            ("shmem_latency", self.shmem_latency),
            ("weaver_table_latency", self.weaver_table_latency),
            ("weaver_entries", self.weaver_entries),
            ("eghw_mlp", self.eghw_mlp),
        ):
            if value < 1:
                raise ConfigError(f"{field} must be at least 1, got {value}")
        if self.dram_service < 0:
            # The memory walk charges a run of fills in closed form,
            # which needs the controller timeline to never run backwards.
            raise ConfigError(
                f"dram_service must be at least 0, got {self.dram_service}")

    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        """Total cores across sockets."""
        return self.num_sockets * self.cores_per_socket

    @property
    def threads_per_core(self) -> int:
        """Resident threads per core."""
        return self.warps_per_core * self.threads_per_warp

    @property
    def total_threads(self) -> int:
        """Grid-wide thread count (the stride of Fig. 9's vertex loop)."""
        return self.num_cores * self.threads_per_core

    @property
    def dram_latency_cycles(self) -> int:
        """DRAM latency expressed in GPU core cycles."""
        return self.dram_latency * self.mem_freq_ratio

    @property
    def dram_service_cycles(self) -> int:
        """Memory-controller occupancy per DRAM line, in core cycles —
        the bandwidth term: total DRAM traffic serializes behind it."""
        return self.dram_service * self.mem_freq_ratio

    # ------------------------------------------------------------------
    def with_weaver_penalty(self) -> "GPUConfig":
        """Halve the L1 to pay for the 512-entry ST/DT tables (Section V).

        The paper evaluates SparseWeaver with L1 reduced from 64KB to
        32KB as a conservative area penalty.
        """
        penalized = CacheConfig(
            max(self.l1.line_bytes * self.l1.ways, self.l1.size_bytes // 2),
            self.l1.line_bytes,
            self.l1.ways,
            self.l1.hit_latency,
        )
        return replace(self, l1=penalized)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def vortex_paper(cls) -> "GPUConfig":
        """The literal Section V configuration (slow in pure Python)."""
        return cls()

    @classmethod
    def vortex_bench(cls) -> "GPUConfig":
        """Scaled-down Vortex: 2 cores, 8 warps — same ratios, fast.

        Caches shrink with the dataset analogs: the paper runs 64KB L1
        against hundred-megabyte graphs, so a faithful *ratio* for our
        10^3-10^5-edge analogs needs a few-KB L1, keeping edge/property
        streams DRAM-bound the way the paper's are.
        """
        return cls(
            num_sockets=1,
            cores_per_socket=2,
            warps_per_core=8,
            l1=CacheConfig(4 * KB, ways=4),
            l2=CacheConfig(32 * KB, hit_latency=20),
        )

    @classmethod
    def vortex_tiny(cls) -> "GPUConfig":
        """Minimal config for unit tests: 1 core, 2 warps, 4 threads."""
        return cls(
            num_sockets=1,
            cores_per_socket=1,
            warps_per_core=2,
            threads_per_warp=4,
            l1=CacheConfig(4 * KB),
            l2=CacheConfig(32 * KB, hit_latency=20),
        )

    @classmethod
    def ampere_like(cls) -> "GPUConfig":
        """A30 stand-in: more cores/warps, bigger caches, fast DRAM."""
        return cls(
            num_sockets=1,
            cores_per_socket=4,
            warps_per_core=16,
            l1=CacheConfig(128 * KB),
            l2=CacheConfig(2 * MB, hit_latency=24),
            dram_latency=80,
        )

    @classmethod
    def ada_like(cls) -> "GPUConfig":
        """RTX 4090 stand-in: even wider, big L2, low DRAM latency."""
        return cls(
            num_sockets=1,
            cores_per_socket=6,
            warps_per_core=16,
            l1=CacheConfig(128 * KB),
            l2=CacheConfig(4 * MB, hit_latency=28),
            dram_latency=60,
        )
