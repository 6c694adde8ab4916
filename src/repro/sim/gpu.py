"""Event-driven SIMT execution engine: one loop over compiled records.

Execution model (DESIGN.md §5):

* Each core holds ``warps_per_core`` resident warps; a warp is a Python
  generator yielding :class:`~repro.sim.instructions.Instr`.
* A core issues at most one warp instruction per cycle. After issuing,
  the warp is blocked until the instruction's latency elapses; meanwhile
  other ready warps issue. This reproduces the latency hiding that
  in-order, scoreboarded GPUs such as Vortex get from warp-level
  parallelism.
* When no warp is ready, the gap is charged as a stall attributed to the
  instruction class the *next-ready* warp is blocked on — the same
  attribution idea behind Nsight's "long/short scoreboard" stalls.
* Cores interleave through a global event heap keyed by core time, so
  shared L2/L3 state is touched in approximately true time order.
* ``SYNC`` is a core-wide barrier over non-finished warps.
* Weaver/EGHW instructions are dispatched to a per-core hardware unit
  which manages its own busy-time serialization and replies through
  ``generator.send``.

The loop never interprets an :class:`Instr` directly: every
instruction is first compiled into a flat *record* by
:func:`instr_compiler` (issue cost, fixed latency, phase, stall
category, deduplicated cache lines, atomic conflict surcharge). A warp
feeds the loop from one of two sources. A *live* warp runs its
generator and compiles each instruction as it is yielded — every
reference launch, hardware-unit kernels and execution-traced launches.
A *replayed* warp reads the records a
:class:`~repro.sim.fast.FastGPU` stored when it first drained the
kernel, re-applying the functional ``edge_update`` effects captured
between them. Scheduling, barrier release, stall attribution and the
memory walk are the same code for both sources, so the engines agree
by construction.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.profile import get_profiler
from repro.obs.provenance import get_digester
from repro.sim.config import GPUConfig
from repro.sim.instructions import Instr, Op, Phase, as_index_array
from repro.sim.memory import MemoryHierarchy
from repro.sim.stats import KernelStats, StallCat, stall_category

_RUNNING = 0
_BARRIER = 1
_DONE = 2

#: Record kinds. FIXED covers every op whose completion time is a
#: constant offset (ALU, SHMEM, NOP, empty memory ops). LOAD records
#: (loads and atomics) add the memory walk's latency to that offset;
#: STORE records walk the hierarchy for cache state only. COUNTER
#: records cost zero cycles but stay in the stream: issuing one resets
#: the warp's ready time to *now*, which steers min-ready warp
#: selection.
FIXED, LOAD, STORE, SYNC, UNIT, COUNTER = range(6)

_UNIT_OPS = frozenset({
    Op.WEAVER_REG,
    Op.WEAVER_DEC_ID,
    Op.WEAVER_DEC_LOC,
    Op.WEAVER_SKIP,
    Op.EGHW_PUSH,
    Op.EGHW_FETCH,
})

#: Stall category per opcode, resolved once instead of per instruction.
_STALL_OF = {op: stall_category(op) for op in Op}


class Tally:
    """What a record stream adds to :class:`KernelStats` regardless of
    timing: launched warps, per-op counts, issue cycles per phase and
    counter bumps. Filled while records are compiled and folded into
    the kernel's stats when it ends."""

    __slots__ = ("warps_launched", "op_counts", "issue_phase", "counters")

    def __init__(self) -> None:
        self.warps_launched = 0
        self.op_counts: Dict[Op, int] = defaultdict(int)
        self.issue_phase: Dict[Phase, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)

    def fold_into(self, stats: KernelStats) -> None:
        """Add these totals to a kernel's ``stats``."""
        stats.warps_launched += self.warps_launched
        stats.instructions += sum(self.op_counts.values())
        for op, count in self.op_counts.items():
            stats.op_counts[op] += count
        for phase, cycles in self.issue_phase.items():
            stats.phase_cycles[phase] += cycles
        for name, value in self.counters.items():
            stats.counters[name] += value


class KernelRecords:
    """One kernel's stored records, ready for replay.

    ``cores`` holds, per core, ``(slot, records, effects)`` for every
    launched warp; ``effects`` maps a record index to the captured
    ``edge_update`` argument tuples the warp produced just before that
    record (``None`` when it produced none).
    """

    __slots__ = ("cores", "tally")

    def __init__(self, cores: list, tally: Tally) -> None:
        self.cores = cores
        self.tally = tally


def instr_compiler(config: GPUConfig, memory: MemoryHierarchy,
                   tally: Tally,
                   has_unit: bool) -> Callable[[Instr], tuple]:
    """Return the function that compiles one :class:`Instr` into a record.

    A record is ``(kind, issue, latency, phase, stall category, lines,
    op, payload)``. ``issue`` is the issue cost in cycles. ``latency``
    is the fixed part of the completion offset (LOAD records add the
    memory walk's latency; for atomics it includes the conflict
    surcharge). ``lines`` are the access's ascending unique cache
    lines. Each compiled instruction is also counted into ``tally``.
    Hardware-unit ops raise unless the launch has a unit
    (``has_unit``).

    ALU, shared-memory, barrier, NOP and counter records depend only
    on the opcode, count and phase, so each distinct one is built once
    per compiler and shared.
    """
    lines_for = memory.lines_for
    alu_lat = config.alu_latency - 1
    shmem_lat = config.shmem_latency - 1
    store_lat = 1 + config.store_latency
    atomic_extra = config.atomic_extra
    stall_of = _STALL_OF
    op_counts = tally.op_counts
    issue_phase = tally.issue_phase
    counters = tally.counters
    op_alu, op_load, op_store, op_atomic = Op.ALU, Op.LOAD, Op.STORE, Op.ATOMIC
    op_counter, op_sync, op_nop = Op.COUNTER, Op.SYNC, Op.NOP
    op_shmem_ld, op_shmem_st = Op.SHMEM_LOAD, Op.SHMEM_STORE
    ndarray, int64 = np.ndarray, np.dtype(np.int64)
    #: ``elements_loaded:<region>`` counter key per region.
    load_keys: Dict[Any, str] = {}
    #: Shared records keyed by ``(op, count, phase)``.
    fixed: Dict[tuple, tuple] = {}

    def fixed_record(op: Op, count: int, phase: Phase) -> tuple:
        cat = stall_of[op]
        if op is op_alu:
            rec = (FIXED, count, count + alu_lat, phase, cat, None, op,
                   None)
        elif op is op_counter:
            rec = (COUNTER, 0, 0, phase, cat, None, op, None)
        elif op is op_shmem_ld or op is op_shmem_st:
            rec = (FIXED, count, count + shmem_lat, phase, cat, None, op,
                   None)
        elif op is op_sync:
            rec = (SYNC, 1, 1, phase, cat, None, op, None)
        else:  # NOP
            rec = (FIXED, 1, 1, phase, cat, None, op, None)
        fixed[op, count, phase] = rec
        return rec

    def compile_instr(instr: Instr) -> tuple:
        op = instr.op
        phase = instr.phase
        if op is op_load or op is op_store or op is op_atomic:
            cat = stall_of[op]
            idx = instr.indices
            if idx.__class__ is not ndarray or idx.dtype is not int64:
                idx = as_index_array(idx)
            n = idx.size
            if not n:
                rec = (FIXED, 1, 1, phase, cat, None, op, None)
            else:
                region = instr.region
                lines = lines_for(region, idx)
                if op is op_load:
                    # Element-level traffic per array: lets tests check
                    # the Table I access formulas (2|V|+|E| vs 2|E|).
                    key = load_keys.get(region)
                    if key is None:
                        key = load_keys[region] = (
                            "elements_loaded:" + region.name)
                    counters[key] += n
                    rec = (LOAD, 1, 1, phase, cat, lines, op, None)
                elif op is op_store:
                    # Write-allocate for cache state; the warp itself
                    # only pays the (buffered) store latency.
                    rec = (STORE, 1, store_lat, phase, cat, lines, op,
                           None)
                else:
                    # Lanes hitting the same element serialize.
                    conflicts = (n - len(set(idx.tolist())) if n > 1
                                 else 0)
                    rec = (LOAD, 1, 1 + atomic_extra * (1 + conflicts),
                           phase, cat, lines, op, None)
        elif op is op_counter:
            name, value = instr.payload
            counters[name] += value
            return (fixed.get((op, 0, phase))
                    or fixed_record(op, 0, phase))
        elif op in _UNIT_OPS:
            if not has_unit:
                raise SimulationError(
                    f"{op.name} issued but the kernel was launched "
                    "without a hardware unit")
            rec = (UNIT, 1, 0, phase, stall_of[op], None, op,
                   instr.payload)
        elif (op is op_alu or op is op_shmem_ld or op is op_shmem_st
              or op is op_sync or op is op_nop):
            count = instr.count
            rec = (fixed.get((op, count, phase))
                   or fixed_record(op, count, phase))
        else:
            raise SimulationError(f"unknown opcode {op!r}")
        op_counts[op] += 1
        issue_phase[phase] += rec[1]
        return rec

    return compile_instr


def _replayed(records: tuple, effects: Optional[dict],
              effect: Optional[Callable]) -> Iterator[tuple]:
    """A replayed warp's source: its stored records, with the captured
    ``edge_update`` effects re-applied, in issue order, at the points
    the trace drain saw them."""
    if not effects:
        yield from records
        return
    for i, rec in enumerate(records):
        batches = effects.get(i)
        if batches is not None:
            for args in batches:
                effect(*args)
        yield rec
    for args in effects.get(len(records), ()):
        effect(*args)


class WarpContext:
    """Identity of one resident warp, passed to kernel factories."""

    __slots__ = (
        "core_id",
        "warp_slot",
        "global_warp_id",
        "config",
        "lane_ids",
        "thread_ids",
    )

    def __init__(self, core_id: int, warp_slot: int, config: GPUConfig) -> None:
        self.core_id = core_id
        self.warp_slot = warp_slot
        self.config = config
        self.global_warp_id = core_id * config.warps_per_core + warp_slot
        self.lane_ids = np.arange(config.threads_per_warp, dtype=np.int64)
        self.thread_ids = (
            self.global_warp_id * config.threads_per_warp + self.lane_ids
        )

    @property
    def num_lanes(self) -> int:
        """Threads per warp."""
        return self.config.threads_per_warp

    @property
    def total_threads(self) -> int:
        """Grid-wide thread count (stride of vertex/edge loops)."""
        return self.config.total_threads


class _Warp:
    __slots__ = ("slot", "source", "ready", "state", "cat", "phase",
                 "response")

    def __init__(self, slot: int, source: Iterator) -> None:
        self.slot = slot
        self.source = source
        self.ready = 0
        self.state = _RUNNING
        self.cat = _STALL_OF[Op.NOP]
        self.phase = Phase.OTHER
        self.response: Any = None


WarpFactory = Callable[[WarpContext], Optional[Iterator[Instr]]]
UnitFactory = Callable[[int], Any]


class GPU:
    """The simulated GPU: cores + memory hierarchy + optional units."""

    #: Whether :meth:`run_kernel` consumes ``replay`` hints.  Drivers
    #: use this to decide when to swap in a recording ``edge_update``
    #: (the fast engine captures effects at trace time; the reference
    #: engine must execute them live).
    supports_replay = False

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.memory = MemoryHierarchy(config)

    # ------------------------------------------------------------------
    def has_trace(self, key: str) -> bool:
        """Whether a kernel trace is stored under ``key``.

        The reference engine never stores traces; the fast engine
        (:class:`repro.sim.fast.FastGPU`) overrides this so drivers can
        skip rebuilding warp factories for kernels that will replay.
        """
        return False

    def _instr_compiler(self, tally: Tally,
                        has_unit: bool) -> Callable[[Instr], tuple]:
        """The record compiler for one launch (see
        :func:`instr_compiler`); live warps and the fast engine's trace
        drain both compile through it."""
        return instr_compiler(self.config, self.memory, tally, has_unit)

    def _stored_records(self, warp_factory, unit_factory, tracer, replay,
                        max_instructions) -> Optional[KernelRecords]:
        """Records this launch replays, or ``None`` to run it live.

        The reference engine runs every launch live;
        :class:`repro.sim.fast.FastGPU` returns stored records.
        """
        return None

    # ------------------------------------------------------------------
    def run_kernel(
        self,
        warp_factory: Optional[WarpFactory],
        unit_factory: Optional[UnitFactory] = None,
        flush_caches: bool = False,
        max_instructions: int = 500_000_000,
        tracer: Optional[Any] = None,
        replay: Optional[Any] = None,
    ) -> KernelStats:
        """Run one kernel to completion and return its statistics.

        Parameters
        ----------
        warp_factory:
            Called once per resident warp with a :class:`WarpContext`;
            returns the warp's instruction generator, or ``None`` when
            the warp has no work (it never participates in barriers).
        unit_factory:
            Optional per-core hardware unit constructor (Weaver or
            EGHW). The unit must expose
            ``handle(op, warp_slot, now, payload) -> (done_time, response)``.
        flush_caches:
            Invalidate caches before the kernel (cold-start runs).
        max_instructions:
            Safety valve against runaway kernels.
        replay:
            Optional :class:`repro.sim.fast.ReplayHint`.  A GPU with a
            record store (:meth:`_stored_records`) replays the records
            kept under its key; the reference engine ignores it and
            runs every launch live, so drivers can pass one hint down
            regardless of which engine built the GPU.
        """
        cfg = self.config
        mem = self.memory
        stored = self._stored_records(warp_factory, unit_factory, tracer,
                                      replay, max_instructions)
        if flush_caches:
            mem.flush()
        mem.begin_kernel()
        stats = KernelStats()
        dram_before = mem.dram_accesses
        # Duck-typed: tracers predating stall attribution only expose
        # ``record``.
        record_stall = getattr(tracer, "record_stall", None)
        registry = get_registry()
        # Host-side profiler: every hook below hides behind this one
        # local truth test, so a disabled profiler costs one comparison
        # per section and reads no clocks — simulated cycle counts are
        # bit-identical either way (perf_counter never feeds the sim).
        profiler = get_profiler()
        prof_on = profiler.enabled
        kernel_start = perf_counter() if prof_on else 0.0
        # Provenance digester: same guard discipline. Folds only
        # simulated values (never host time), so even enabled it can't
        # perturb cycles — it just records what they were.
        digester = get_digester()
        dig_on = digester.enabled
        if dig_on:
            digester.begin_kernel()
        cache_before = (mem.cache_counts() if registry.enabled or dig_on
                        else None)
        # Duck-typed kernel-launch notification for window tracers
        # (``repro diff --replay`` records only one kernel).
        tracer_begin = getattr(tracer, "begin_kernel", None)
        if tracer_begin is not None:
            tracer_begin()

        cores: List[List[_Warp]] = []
        units: Dict[int, Any] = {}
        heap = []
        live = stored is None
        if live:
            tally = Tally()
            compile_instr = self._instr_compiler(tally,
                                                 unit_factory is not None)
            for core_id in range(cfg.num_cores):
                warps = []
                for slot in range(cfg.warps_per_core):
                    gen = warp_factory(WarpContext(core_id, slot, cfg))
                    if gen is not None:
                        tally.warps_launched += 1
                        warps.append(_Warp(slot, gen))
                cores.append(warps)
                if unit_factory is not None:
                    units[core_id] = unit_factory(core_id)
        else:
            tally = stored.tally
            effect = replay.effect
            for entries in stored.cores:
                cores.append([_Warp(slot, _replayed(recs, effects, effect))
                              for slot, recs, effects in entries])
        for core_id, warps in enumerate(cores):
            if warps:
                heapq.heappush(heap, (0, core_id))
        if prof_on:
            profiler.add("setup", perf_counter() - kernel_start)

        stall_cells = stats.stall_cells
        phase_cycles = stats.phase_cycles
        access = mem.access
        core_time = [0] * cfg.num_cores
        issued = 0
        # The heap holds each core with unfinished warps once, keyed by
        # its next issue time; the core at the top issues, then is
        # re-keyed in place (or dropped once its warps are done).
        replace = heapq.heapreplace
        while heap:
            if prof_on:
                sched_start = perf_counter()
            t, core_id = heap[0]
            warps = cores[core_id]
            # One pass finds the first minimal-ready running warp
            # (strict < keeps the slot-order tie-break).
            warp = None
            best = 1 << 62
            for w in warps:
                if w.state == _RUNNING and w.ready < best:
                    warp = w
                    best = w.ready
            if warp is None:
                blocked = [w for w in warps if w.state == _BARRIER]
                if blocked:
                    release = max(max(w.ready for w in blocked), t)
                    # Barrier cost is warp-level waiting: early arrivals
                    # sit idle until the last warp shows up.
                    for w in blocked:
                        wait = release - w.ready
                        if wait:
                            stall_cells[
                                (core_id, w.slot, StallCat.SYNC)] += wait
                            if record_stall is not None:
                                record_stall(w.ready, core_id, w.slot,
                                             StallCat.SYNC, wait)
                            if dig_on:
                                digester.note_stall(w.ready, core_id,
                                                    w.slot, StallCat.SYNC,
                                                    wait)
                        w.state = _RUNNING
                        w.ready = release
                    replace(heap, (release, core_id))
                else:
                    heapq.heappop(heap)
                if prof_on:
                    profiler.add("schedule", perf_counter() - sched_start)
                continue

            if best > t:
                gap = best - t
                # Only the attribution cells accumulate in the loop;
                # the per-category counters are folded from them at
                # kernel end, keeping the hot path at one increment.
                stall_cells[(core_id, warp.slot, warp.cat)] += gap
                phase_cycles[warp.phase] += gap
                if record_stall is not None:
                    record_stall(t, core_id, warp.slot, warp.cat, gap)
                if dig_on:
                    digester.note_stall(t, core_id, warp.slot, warp.cat,
                                        gap)
                t = best
            if prof_on:
                kernel_gen_start = perf_counter()
                profiler.add("schedule", kernel_gen_start - sched_start)

            try:
                item = warp.source.send(warp.response)
            except StopIteration:
                warp.state = _DONE
                warp.source = None
                if any(w.state != _DONE for w in warps):
                    replace(heap, (t, core_id))
                else:
                    heapq.heappop(heap)
                if t > core_time[core_id]:
                    core_time[core_id] = t
                if prof_on:
                    profiler.add("kernel",
                                 perf_counter() - kernel_gen_start)
                continue
            warp.response = None
            if prof_on:
                execute_start = perf_counter()
                profiler.add("kernel", execute_start - kernel_gen_start)

            kind, issue, latency, phase, cat, lines, op, payload = (
                compile_instr(item) if live else item)
            done = t + latency
            if kind == LOAD:
                done += access(core_id, None, None, t, lines)[0]
            elif kind == STORE:
                access(core_id, None, None, t, lines)
            elif kind == SYNC:
                warp.state = _BARRIER
            elif kind == UNIT:
                done, warp.response = units[core_id].handle(
                    op, warp.slot, t + 1, payload)
            if prof_on:
                account_start = perf_counter()
                profiler.add_op(op.name, account_start - execute_start)
            if kind != COUNTER:
                if tracer is not None:
                    tracer.record(t, core_id, warp.slot, op, phase, done)
                if dig_on:
                    digester.note_issue(t, core_id, warp.slot, op, phase,
                                        done)
                issued += 1
                if issued > max_instructions:
                    raise SimulationError(
                        f"kernel exceeded {max_instructions} instructions; "
                        "likely a non-terminating kernel"
                    )
            warp.ready = done
            warp.cat = cat
            warp.phase = phase
            t += issue
            if t > core_time[core_id]:
                core_time[core_id] = t
            replace(heap, (t, core_id))
            if prof_on:
                profiler.add("account", perf_counter() - account_start)

        finalize_start = perf_counter() if prof_on else 0.0
        for core_id, warps in enumerate(cores):
            pending = [w for w in warps if w.state == _BARRIER]
            if pending:
                raise SimulationError(
                    f"core {core_id}: {len(pending)} warps stuck at a "
                    "barrier at kernel end (mismatched SYNC counts)"
                )
            tail = max((w.ready for w in warps), default=0)
            core_time[core_id] = max(core_time[core_id], tail)

        stats.total_cycles = max(core_time) if core_time else 0
        tally.fold_into(stats)
        for (_core, _warp, cat), cycles in stall_cells.items():
            stats.stall_cycles[cat] += cycles
        stats.cache = mem.cache_stats()
        stats.dram_accesses = mem.dram_accesses - dram_before
        if registry.enabled:
            registry.publish_kernel_stats(stats)
            mem.publish_metrics(registry, cache_before,
                                stats.dram_accesses)
        if prof_on:
            end = perf_counter()
            profiler.add("finalize", end - finalize_start)
            profiler.end_kernel(stats.total_cycles, end - kernel_start)
        if dig_on:
            digester.end_kernel(stats, mem.cache_deltas(cache_before))
        return stats
