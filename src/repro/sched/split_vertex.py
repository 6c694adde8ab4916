"""S_vm over a Tigr-style split graph (static storage-format balancing).

The Related Work's other software family fixes imbalance at *static*
time: vertex virtualization (Tigr [37], CSR5-style splits) caps every
vertex's degree by splitting hubs into bounded-degree virtual vertices.
Section III-D notes SparseWeaver can register such splits directly;
this schedule instead runs plain vertex mapping over the split view —
the software-only alternative — which bounds warp rounds at
``max_degree`` but pays for it with more registration entries, an extra
indirection table (split -> physical vertex), and atomics, since splits
of one hub now share an accumulator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.graph.formats import SplitVertexFormatInterface
from repro.sched.base import KernelEnv, Schedule
from repro.sched.common import check_early_exit, process_edge_batch
from repro.sim.instructions import Phase, alu, counter, load


class SplitVertexMapSchedule(Schedule):
    """Vertex mapping over bounded-degree virtual vertices."""

    name = "split_vertex_map"
    label = "S_vm+split"
    trace_safe = True

    def __init__(self, max_degree: int = 8) -> None:
        if max_degree < 1:
            raise ScheduleError("split max_degree must be at least 1")
        self.max_degree = max_degree

    def warp_factory(self, env: KernelEnv):
        split = SplitVertexFormatInterface(env.graph, self.max_degree)
        num_split = split.num_vertices
        starts = split._starts
        ends = split._ends
        owners = split._owners
        stride = env.config.total_threads
        num_epochs = max(1, -(-num_split // stride))
        alg = env.algorithm
        early_exit = alg.has_early_exit

        # The virtualization tables are data the kernel must read; Tigr
        # materializes them at static time. Allocate once per env.
        if "split_table" not in env.regions:
            env.regions["split_table"] = env.memory_map.alloc(
                "split_table", 3 * num_split, 8
            )

        def factory(ctx):
            if ctx.thread_ids[0] >= num_split:
                return None

            def kernel():
                for epoch in range(num_epochs):
                    sids = ctx.thread_ids + epoch * stride
                    sids = sids[sids < num_split]
                    if sids.size == 0:
                        break
                    # split-table read: (owner, start, end) per lane
                    yield load(Phase.REGISTRATION,
                               env.region("split_table"), sids * 3)
                    yield alu(Phase.REGISTRATION)
                    base_vids = owners[sids]
                    seg_starts = starts[sids]
                    degrees = ends[sids] - seg_starts
                    if alg.has_base_filter:
                        for name in alg.base_filter_arrays:
                            yield load(Phase.REGISTRATION,
                                       env.region(name), base_vids)
                        yield alu(Phase.REGISTRATION)
                        degrees = alg.filtered_degrees(
                            env.state, base_vids, degrees
                        )
                    alive = np.nonzero(degrees > 0)[0]
                    k = 0
                    while alive.size:
                        yield counter("warp_iterations")
                        bases = base_vids[alive]
                        eids = seg_starts[alive] + k
                        # splits of one hub share an accumulator ->
                        # atomic merge, unlike plain vertex mapping
                        yield from process_edge_batch(
                            env, bases, eids, accumulate="atomic"
                        )
                        k += 1
                        alive = alive[degrees[alive] > k]
                        if early_exit and alive.size:
                            done = yield from check_early_exit(
                                env, base_vids[alive]
                            )
                            if done.any():
                                alive = alive[~done]

            return kernel()

        return factory
