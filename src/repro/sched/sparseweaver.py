"""The SparseWeaver schedule (Sections III-IV; kernel of Fig. 9).

Registration: each thread inspects its vertex's topology and issues
``WEAVER_REG(vid, start, degree)`` (filtered vertices register degree
zero). One barrier separates the stages. Distribution: warps loop on
``WEAVER_DEC_ID`` / ``WEAVER_DEC_LOC``, getting densely packed
(VID, EID) work across all lanes until the unit returns -1; algorithms
with early exit send ``WEAVER_SKIP`` for finished vertices.

Block-level balance comes for free (the per-core unit scans every
warp's registrations), work is handed out in request order (dynamic
distribution), and the only software overhead left is the single
barrier — the "low / low" complexity column of Table I.

When the vertex range exceeds one registration capacity, the kernel
runs multiple epochs; a trailing barrier protects the table reset
between epochs (the paper's single-epoch case keeps exactly one sync).
"""

from __future__ import annotations

import numpy as np

from repro.core.unit import WeaverUnit
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import (
    check_early_exit,
    inspect_topology,
    process_edge_batch,
)
from repro.sim.instructions import (
    Phase,
    counter,
    sync,
    weaver_dec_id,
    weaver_dec_loc,
    weaver_reg,
    weaver_skip,
)


class SparseWeaverSchedule(Schedule):
    """Hardware-woven dense work distribution.

    The constructor exposes the microarchitectural knobs the ablation
    benchmarks sweep: OD prefetch depth (decoupled scan), the zero-entry
    bitmap scan width (frontier-friendly skipping), and the DT
    write-buffer bypass. Defaults are the modeled hardware's.
    """

    name = "sparseweaver"
    label = "SW"
    uses_hardware_unit = True

    def __init__(
        self,
        prefetch_depth: int = 4,
        zero_skip_width: int = None,
        dt_bypass: bool = True,
    ) -> None:
        self.prefetch_depth = prefetch_depth
        self.zero_skip_width = zero_skip_width
        self.dt_bypass = dt_bypass

    def unit_factory(self, env: KernelEnv):
        config = env.config
        prefetch_depth = self.prefetch_depth
        zero_skip_width = self.zero_skip_width
        dt_bypass = self.dt_bypass

        def build(core_id: int) -> WeaverUnit:
            unit = WeaverUnit(config, prefetch_depth=prefetch_depth)
            if zero_skip_width is not None:
                unit.fsm.zero_skip_width = zero_skip_width
            if not dt_bypass:
                unit.DT_BYPASS_LATENCY = config.weaver_table_latency
            return unit

        return build

    def warp_factory(self, env: KernelEnv):
        cfg = env.config
        early_exit = env.algorithm.has_early_exit
        lanes = env.lanes
        lane_ids = np.arange(lanes, dtype=np.int64)
        # Registration capacity per core: when the ST has fewer entries
        # than resident threads, only the first warps register each
        # epoch and the grid covers vertices in capacity-sized chunks.
        capacity = max(lanes,
                       min(cfg.weaver_entries, cfg.threads_per_core))
        capacity -= capacity % lanes
        reg_warps = capacity // lanes
        grid = cfg.num_cores * capacity
        num_vertices = env.num_vertices
        num_epochs = max(1, -(-num_vertices // grid))

        def factory(ctx):
            registers = ctx.warp_slot < reg_warps
            base = (ctx.core_id * capacity + ctx.warp_slot * lanes)

            def kernel():
                for epoch in range(num_epochs):
                    if registers:
                        vids = epoch * grid + base + lane_ids
                        vids = vids[vids < num_vertices]
                    else:
                        vids = lane_ids[:0]
                    if vids.size:
                        starts, degrees = yield from inspect_topology(
                            env, vids
                        )
                        entries = list(
                            zip(lane_ids[: vids.size].tolist(),
                                vids.tolist(),
                                starts.tolist(),
                                degrees.tolist())
                        )
                        yield weaver_reg(Phase.REGISTRATION, entries)
                    else:
                        yield weaver_reg(Phase.REGISTRATION, [])
                    yield sync(Phase.REGISTRATION)

                    while True:
                        yield counter("warp_iterations")
                        decoded = yield weaver_dec_id(Phase.SCHEDULE)
                        if decoded.exhausted:
                            break
                        eid_row = yield weaver_dec_loc(Phase.SCHEDULE)
                        mask = decoded.mask
                        bases = decoded.vids[mask]
                        eids = eid_row[mask]
                        yield from process_edge_batch(
                            env, bases, eids, accumulate="atomic"
                        )
                        if early_exit:
                            done = yield from check_early_exit(env, bases)
                            if done.any():
                                for vid in np.unique(bases[done]).tolist():
                                    yield weaver_skip(Phase.GATHER,
                                                      int(vid))
                    if epoch < num_epochs - 1:
                        # Protect the ST/DT reset of the next epoch's
                        # registration from stragglers.
                        yield sync(Phase.SCHEDULE)

            return kernel()

        return factory
