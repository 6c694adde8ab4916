"""Shared kernel-emission helpers used by every schedule.

These sub-generators (driven with ``yield from``) emit the memory
traffic and ALU work of the two halves every scheme shares — inspecting
graph topology at registration time and processing a warp-wide batch of
edges at distribution time — while performing the *functional* update on
the numpy state arrays, so timing and correctness come from one code
path.
"""

from __future__ import annotations

import numpy as np

from repro.sched.base import KernelEnv
from repro.sim.instructions import (
    Phase,
    alu,
    atomic,
    load,
    store,
)

_EMPTY = np.zeros(0, dtype=np.int64)
_ONES = np.ones(0)


def inspect_topology(env: KernelEnv, vids: np.ndarray,
                     phase: Phase = Phase.REGISTRATION):
    """Emit the topology access of Fig. 9 lines 5-8; returns
    ``(starts, degrees)`` with the base filter already applied
    (filtered vertices get degree zero)."""
    g = env.graph
    alg = env.algorithm
    if vids.size == 0:
        return _EMPTY, _EMPTY
    yield load(phase, env.region("row_ptr"),
               np.concatenate([vids, vids + 1]))
    yield alu(phase)
    starts = g.row_ptr[vids]
    degrees = g.row_ptr[vids + 1] - starts
    if alg.has_base_filter:
        for name in alg.base_filter_arrays:
            yield load(phase, env.region(name), vids)
        yield alu(phase)
        degrees = alg.filtered_degrees(env.state, vids, degrees)
    return starts, degrees


def unit_weights(n: int) -> np.ndarray:
    """``n`` unit edge weights, as a read-only view of one shared vector.

    ``edge_update`` may keep its arguments (the fast engine captures
    them for replay), so the shared vector must never be written."""
    global _ONES
    if n > _ONES.size:
        _ONES = np.ones(max(n, 2 * _ONES.size))
        _ONES.flags.writeable = False
    return _ONES[:n]


def process_edge_batch(
    env: KernelEnv,
    bases: np.ndarray,
    eids: np.ndarray,
    accumulate: str = "atomic",
    edge_phase: Phase = Phase.EDGE_ACCESS,
    gather_phase: Phase = Phase.GATHER,
    preloaded: bool = False,
    others: np.ndarray = None,
    weights: np.ndarray = None,
) -> None:
    """Emit edge-information access + gather&sum for one warp batch.

    ``accumulate`` selects how the per-edge contribution lands in the
    accumulator array: ``"atomic"`` (lanes may share a base vertex, the
    scheme pays an atomic op) or ``"local"`` (each lane owns its base —
    vertex mapping — and writes back once at the end, charged by the
    caller). ``preloaded=True`` means a hardware unit (EGHW) already
    fetched the opposite endpoint and weight, so the kernel skips those
    loads and uses the supplied ``others``/``weights``.

    The lanes the other-endpoint filter keeps reach ``edge_update``;
    with no filter (or none filtered out) the batch's arrays are handed
    over as they are, so callers must not write to them afterwards.
    """
    alg = env.algorithm
    size = bases.size
    if size == 0:
        return
    regions = env.regions
    if not preloaded:
        yield load(edge_phase, regions["col_idx"], eids)
        others = env.graph.col_idx[eids]
        if alg.uses_weights:
            yield load(edge_phase, regions["weights"], eids)
            weights = env.graph.weights[eids]
    if weights is None:
        weights = unit_weights(size)
    for name in alg.edge_value_arrays:
        yield load(gather_phase, regions[name], others)
    if alg.other_filter is not None:
        yield alu(gather_phase)
        drop = alg.other_filter(env.state, others)
        dropped = np.count_nonzero(drop)
        if dropped == size:
            return
        if dropped:
            keep = ~drop
            bases, others = bases[keep], others[keep]
            weights, eids = weights[keep], eids[keep]
    yield alu(gather_phase, alg.gather_alu)
    alg.edge_update(env.state, bases, others, weights, eids)
    if accumulate == "atomic":
        targets = bases if alg.accumulate_target == "base" else others
        yield atomic(gather_phase, regions[alg.acc_array], targets)


def writeback_accumulators(env: KernelEnv, bases: np.ndarray,
                           phase: Phase = Phase.GATHER):
    """Vertex-mapping epilogue: one coalesced accumulator store for the
    lanes that gathered anything (their sums lived in registers)."""
    if bases.size:
        yield store(phase, env.region(env.algorithm.acc_array), bases)


def epoch_vertex_ids(ctx, env: KernelEnv, epoch: int) -> np.ndarray:
    """Grid-stride vertex ids owned by this warp's lanes in ``epoch``
    (only the in-range ones)."""
    vids = ctx.thread_ids + epoch * env.config.total_threads
    return vids[vids < env.num_vertices]


def epoch_edge_ids(ctx, env: KernelEnv, epoch: int) -> np.ndarray:
    """Grid-stride edge ids owned by this warp's lanes in ``epoch``."""
    eids = ctx.thread_ids + epoch * env.config.total_threads
    return eids[eids < env.num_edges]


def log2_ceil(n: int) -> int:
    """Ceil of log2 for n >= 1 (scan/binary-search depth)."""
    return max(1, int(np.ceil(np.log2(max(n, 2)))))


def check_early_exit(env: KernelEnv, bases: np.ndarray):
    """Emit the early-exit test of an algorithm that has one; returns
    the done mask (empty batches return an empty mask)."""
    if bases.size == 0:
        return np.zeros(0, dtype=bool)
    yield alu(Phase.GATHER)
    return env.algorithm.early_exit(env.state, bases)
