"""Property tests: the cache model vs a reference per-set LRU, and the
memory hierarchy's level-by-level walk vs a per-line reference walk."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.sim import Cache, CacheConfig, GPUConfig
from repro.sim.memory import MemoryHierarchy


class ReferenceLRU:
    """Dict-of-OrderedDict set-associative LRU."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [OrderedDict() for _ in range(sets)]
        self.ways = ways
        self.num_sets = sets

    def lookup(self, line: int) -> bool:
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            return True
        s[line] = True
        if len(s) > self.ways:
            s.popitem(last=False)
        return False


@given(
    st.integers(min_value=0, max_value=2).map(lambda p: 2 ** p),  # ways
    st.integers(min_value=1, max_value=7),  # sets, not only powers of 2
    st.lists(st.integers(min_value=0, max_value=40), min_size=1,
             max_size=200),
)
@settings(max_examples=80, deadline=None)
def test_cache_matches_reference_lru(ways, sets, accesses):
    cache = Cache(
        CacheConfig(64 * ways * sets, line_bytes=64, ways=ways), "t"
    )
    ref = ReferenceLRU(sets, ways)
    for line in accesses:
        assert cache.lookup(line) == ref.lookup(line)


@given(
    st.integers(min_value=1, max_value=4),  # ways
    st.integers(min_value=1, max_value=7),  # sets
    st.lists(st.lists(st.integers(min_value=0, max_value=60),
                      max_size=12), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_multi_line_access_matches_lookups(ways, sets, batches):
    """``Cache.access`` over a line list equals one lookup per line and
    returns exactly the missed lines, in order."""
    config = CacheConfig(64 * ways * sets, line_bytes=64, ways=ways)
    cache = Cache(config, "t")
    ref = ReferenceLRU(sets, ways)
    misses = 0
    for lines in batches:
        expected = [line for line in lines if not ref.lookup(line)]
        assert cache.access(lines) == expected
        misses += len(expected)
    assert cache.stats.misses == misses
    assert cache.stats.accesses == sum(len(b) for b in batches)


class ReferenceWalk:
    """The per-line walk: each line goes L1 -> L2 -> (L3) -> DRAM on
    its own, and the worst line latency plus a per-extra-line charge
    is the access latency."""

    def __init__(self, config: GPUConfig) -> None:
        def lru(level):
            return ReferenceLRU(level.num_sets, level.ways)

        self.l1 = [lru(config.l1) for _ in range(config.num_cores)]
        self.shared = [(lru(level), level.hit_latency)
                       for level in (config.l2, config.l3)
                       if level is not None]
        self.config = config
        self.hits = {}
        self.misses = {}
        self.dram_accesses = 0
        self.dram_free = 0

    def _count(self, name, hit):
        table = self.hits if hit else self.misses
        table[name] = table.get(name, 0) + 1

    def access(self, core, lines, now):
        cfg = self.config
        worst = 0
        for line in lines:
            hit = self.l1[core].lookup(line)
            self._count("L1", hit)
            latency = cfg.l1.hit_latency
            for name, (level, level_latency) in zip(("L2", "L3"),
                                                    self.shared):
                if hit:
                    break
                hit = level.lookup(line)
                self._count(name, hit)
                latency = level_latency
            if not hit:
                self.dram_accesses += 1
                fill = max(self.dram_free, now)
                self.dram_free = fill + cfg.dram_service_cycles
                latency = fill - now + cfg.dram_latency_cycles
            worst = max(worst, latency)
        if not lines:
            return 0, 0
        return worst + (len(lines) - 1) * cfg.line_throughput, len(lines)


def _level(ways, sets, latency):
    return CacheConfig(64 * ways * sets, line_bytes=64, ways=ways,
                       hit_latency=latency)


@given(
    st.booleans(),  # with an L3
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 6),
                       st.integers(1, 40)), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=6),  # dram_service
    st.lists(st.tuples(st.integers(0, 1),
                       st.sets(st.integers(0, 80), max_size=10),
                       st.integers(0, 400)), min_size=1, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_hierarchy_walk_matches_per_line_walk(with_l3, levels, service,
                                              accesses):
    """Walking level by level charges the same latency, cache counts,
    DRAM fills and controller timeline as walking line by line."""
    (w1, s1, lat1), (w2, s2, lat2), (w3, s3, lat3) = levels
    config = GPUConfig(
        num_sockets=1, cores_per_socket=2, warps_per_core=2,
        l1=_level(w1, s1, lat1), l2=_level(w2, s2, lat2),
        l3=_level(w3, s3, lat3) if with_l3 else None,
        dram_service=service)
    mem = MemoryHierarchy(config)
    ref = ReferenceWalk(config)
    for core, lines, now in accesses:
        lines = sorted(lines)
        assert mem.access(core, None, None, now, lines) == ref.access(
            core, lines, now)
        assert mem.dram_accesses == ref.dram_accesses
        assert mem._dram_free == ref.dram_free
    for name, stats in mem.cache_stats().items():
        assert stats.hits == ref.hits.get(name, 0)
        assert stats.misses == ref.misses.get(name, 0)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=150))
@settings(max_examples=50, deadline=None)
def test_occupancy_bounded_by_capacity(accesses):
    cache = Cache(CacheConfig(4 * 64 * 2, line_bytes=64, ways=2), "t")
    for line in accesses:
        cache.lookup(line)
    assert cache.occupancy <= cache.config.num_lines


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=100))
@settings(max_examples=50, deadline=None)
def test_second_touch_within_capacity_hits(accesses):
    """With capacity > distinct lines, every re-touch is a hit."""
    cache = Cache(CacheConfig(64 * 64, line_bytes=64, ways=64), "t")
    seen = set()
    for line in accesses:
        hit = cache.lookup(line)
        assert hit == (line in seen)
        seen.add(line)
