"""Trace-and-replay: the fast engine's record store.

For the schedules that opt in (``Schedule.trace_safe``), a kernel's
instruction stream is *response-independent*: it depends only on the
topology and the launch geometry, never on simulated latencies or on
state values the kernel itself mutates. ``FastGPU`` compiles such a
stream once and stores it:

* **Drain** — run every warp generator once with ``next()`` (no
  simulation), compiling each instruction with the same
  :func:`~repro.sim.gpu.instr_compiler` live warps use. The drain
  is *barrier-aware*: warps advance in slot order one SYNC segment at a
  time, so schedules that coordinate through shared per-launch
  registries (cta_map, twc, twce) observe every sibling's registration
  before computing combined work — the same visibility order the
  barrier gives them live. Functional ``edge_update`` calls are
  captured, not executed.
* **Elementwise compile** — grid-stride init/apply kernels get their
  records analytically, without running any generator.

Later launches under the same key hand the stored records to the one
event loop in :meth:`GPU.run_kernel <repro.sim.gpu.GPU.run_kernel>`,
which replays them — re-executing the captured effects in issue order
against live state, so float accumulation order matches a live run.
Cycle counts, stall cells, cache stats and provenance ledgers are
bit-identical to the reference engine by construction: both run the
same loop and memory walk over the same records.

Observers (execution tracers too) see replayed launches exactly as live
ones, so traced runs replay. Hardware-unit kernels (reason ``unit``)
and launches without a hint (``no_hint``: filtered/early-exit
algorithms, whose streams read kernel-mutated state) run live and
increment ``sim_engine_fallback_total``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.profile import phase as _host_phase
from repro.sim.gpu import (COUNTER, FIXED, GPU, LOAD, STORE, SYNC,
                           KernelRecords, Tally, WarpContext)
from repro.sim.instructions import Op
from repro.sim.stats import stall_category


class ReplayHint:
    """Replay directive one kernel launch hands to :class:`FastGPU`.

    ``key`` identifies the kernel within the GPU's trace store (the
    driver uses ``"init"`` / ``"gather"`` / ``"apply"``).  ``capture``
    is the list a recording ``edge_update`` appends argument tuples to
    during the trace drain; ``effect`` is the callable replay invokes
    (in issue order) to apply each captured tuple against live state.
    Both are ``None`` for kernels without functional side effects.

    ``elementwise`` is an optional ``(reads, writes, alu_ops, phase,
    n)`` descriptor — region lists, ALU op count, issue phase, and the
    vertex count — for grid-stride elementwise kernels.  Because each
    warp touches a *contiguous* index range per epoch, the trace can be
    compiled analytically (cache lines are integer ranges) without ever
    running the warp generators; the launch may then pass
    ``warp_factory=None``.
    """

    __slots__ = ("key", "capture", "effect", "elementwise")

    def __init__(self, key: str, capture: Optional[list] = None,
                 effect: Optional[Callable] = None,
                 elementwise: Optional[tuple] = None) -> None:
        self.key = key
        self.capture = capture
        self.effect = effect
        self.elementwise = elementwise


class FastGPU(GPU):
    """Drop-in :class:`GPU` that stores and replays kernel records."""

    supports_replay = True

    def __init__(self, config) -> None:
        super().__init__(config)
        self._traces: Dict[str, KernelRecords] = {}

    # ------------------------------------------------------------------
    def has_trace(self, key: str) -> bool:
        """Whether a kernel trace is already stored under ``key``."""
        return key in self._traces

    def _stored_records(self, warp_factory, unit_factory, replay,
                        max_instructions) -> Optional[KernelRecords]:
        """Stored records for a hinted launch, draining them first if
        needed; ``None`` (live) for launches the store cannot serve.

        Hardware-unit launches reply through ``generator.send`` (their
        streams are response-dependent), so they run live.
        """
        if replay is None or unit_factory is not None:
            get_registry().counter(
                "sim_engine_fallback_total",
                "Kernels the fast engine delegated to the reference loop",
            ).inc(reason="unit" if unit_factory is not None else "no_hint")
            return None
        trace = self._traces.get(replay.key)
        if trace is None:
            with _host_phase("fast/trace"):
                if replay.elementwise is not None:
                    trace = self._trace_elementwise(replay.elementwise)
                else:
                    trace = self._trace(warp_factory, replay,
                                        max_instructions)
            self._traces[replay.key] = trace
        return trace

    # ------------------------------------------------------------------
    def _trace_elementwise(self, desc: tuple) -> KernelRecords:
        """Compile a grid-stride elementwise kernel without generators.

        Mirrors ``frontend.framework._elementwise_factory`` exactly:
        warp ``gwid`` covers indices ``[gwid*lanes + epoch*stride,
        ...)`` clipped to ``n``, a warp whose first index is out of
        range is never launched, and an epoch with no indices ends the
        warp.  Contiguous indices make every cache-line set an integer
        range, so records are built in O(1) per instruction with no
        numpy.
        """
        reads, writes, alu_ops, phase, n = desc
        cfg = self.config
        shift = self.memory._line_shift
        lanes = cfg.threads_per_warp
        stride = cfg.total_threads
        num_epochs = max(1, -(-n // stride)) if n else 1
        alu_rec = (FIXED, alu_ops, alu_ops + cfg.alu_latency - 1,
                   phase, stall_category(Op.ALU), None, Op.ALU, None)
        load_cat = stall_category(Op.LOAD)
        store_cat = stall_category(Op.STORE)
        store_lat = 1 + cfg.store_latency
        tally = Tally()
        counters = tally.counters
        epochs_run = 0
        cores = []
        for core_id in range(cfg.num_cores):
            entries = []
            for slot in range(cfg.warps_per_core):
                first = (core_id * cfg.warps_per_core + slot) * lanes
                if first >= n:
                    continue
                tally.warps_launched += 1
                records = []
                for epoch in range(num_epochs):
                    a = first + epoch * stride
                    if a >= n:
                        break
                    b = a + lanes
                    if b > n:
                        b = n
                    epochs_run += 1
                    for region in reads:
                        base, its = region.base, region.itemsize
                        lo = (base + a * its) >> shift
                        hi = (base + (b - 1) * its) >> shift
                        records.append(
                            (LOAD, 1, 1, phase, load_cat,
                             list(range(lo, hi + 1)), Op.LOAD, None))
                        counters["elements_loaded:"
                                 + region.name] += b - a
                    records.append(alu_rec)
                    for region in writes:
                        base, its = region.base, region.itemsize
                        lo = (base + a * its) >> shift
                        hi = (base + (b - 1) * its) >> shift
                        records.append(
                            (STORE, 1, store_lat, phase, store_cat,
                             list(range(lo, hi + 1)), Op.STORE, None))
                entries.append((slot, tuple(records), None))
            cores.append(entries)
        if epochs_run:
            if reads:
                tally.op_counts[Op.LOAD] = epochs_run * len(reads)
            tally.op_counts[Op.ALU] = epochs_run
            if writes:
                tally.op_counts[Op.STORE] = epochs_run * len(writes)
            tally.issue_phase[phase] = epochs_run * (
                len(reads) + alu_ops + len(writes))
        return KernelRecords(cores, tally)

    # ------------------------------------------------------------------
    def _trace(self, warp_factory, hint: ReplayHint,
               max_instructions: int) -> KernelRecords:
        """Drain every warp generator and compile its records.

        Barrier-aware round-robin: each pass advances every live warp
        (slot order) up to its next ``SYNC`` or to completion, so all
        pre-barrier shared-state writes land before any warp runs its
        post-barrier code — matching live visibility because
        between-barrier shared writes are slot-keyed and post-barrier
        combination is idempotent (the ``trace_safe`` contract).
        """
        cfg = self.config
        capture = hint.capture
        if capture is not None:
            del capture[:]
        tally = Tally()
        compile_instr = self._instr_compiler(tally, has_unit=False)
        instructions = 0
        cores = []
        for core_id in range(cfg.num_cores):
            entries = []
            for slot in range(cfg.warps_per_core):
                gen = warp_factory(WarpContext(core_id, slot, cfg))
                if gen is not None:
                    tally.warps_launched += 1
                    # [slot, generator, records, effects]
                    entries.append([slot, gen, [], {}])
            active = entries
            while active:
                still = []
                for entry in active:
                    gen, records, effects = entry[1], entry[2], entry[3]
                    while True:
                        base = len(capture) if capture is not None else 0
                        try:
                            instr = next(gen)
                        except StopIteration:
                            instr = None
                        if capture is not None and len(capture) > base:
                            effects.setdefault(
                                len(records), []).extend(capture[base:])
                        if instr is None:
                            entry[1] = None
                            break
                        rec = compile_instr(instr)
                        records.append(rec)
                        if rec[0] == COUNTER:
                            continue
                        instructions += 1
                        if instructions > max_instructions:
                            raise SimulationError(
                                f"kernel exceeded {max_instructions} "
                                "instructions; likely a non-terminating "
                                "kernel")
                        if rec[0] == SYNC:
                            break
                    if entry[1] is not None:
                        still.append(entry)
                active = still
            cores.append([(slot, tuple(records), effects or None)
                          for slot, _gen, records, effects in entries])
        return KernelRecords(cores, tally)
