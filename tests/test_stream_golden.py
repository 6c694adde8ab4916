"""Golden record of every schedule's simulated output, per engine.

Both engines compile their records with the same emission helpers
(``repro.sched.common``) and the same record compiler, so the
engine-parity tests cannot see a change to either: a helper that
emits one instruction more moves both engines together. This test
pins the numbers themselves against ``data/stream_golden.json``.

Per cell it compares total cycles, op counts, counters, stall cycles
and cells, per-level cache hits/misses, DRAM accesses, a hash of the
provenance digest ledger, a hash of every ``edge_update`` argument
tuple in call order, and a hash of the result values. Cells span
{PageRank pull/push, BFS top-down/bottom-up, SSSP, CC} x
``EXTENDED_SCHEDULES`` x one small power-law and one small road graph,
under both engines. Bottom-up BFS is the only early-exit UDF; push
PageRank is the only float sum into the other endpoint.

Regenerate (only when a change is meant to move simulated numbers)::

    PYTHONPATH=src python tests/test_stream_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.frontend import GraphProcessor
from repro.graph import powerlaw_graph, road_grid_graph
from repro.obs.provenance import (DEFAULT_INTERVAL, INTERVAL_ENV,
                                  disable_digests, enable_digests,
                                  get_digester)
from repro.sched import EXTENDED_SCHEDULES
from repro.sim import GPUConfig

DATA = Path(__file__).parent / "data" / "stream_golden.json"

#: name -> (algorithm name, factory parameters)
ALGORITHMS = {
    "pagerank_pull": ("pagerank", {"iterations": 2}),
    "pagerank_push": ("pagerank", {"iterations": 2, "direction": "push"}),
    "bfs": ("bfs", {"source": 0}),
    "bfs_bottom_up": ("bfs", {"source": 0, "variant": "bottom_up"}),
    "sssp": ("sssp", {}),
    "cc": ("cc", {}),
}

GRAPHS = {
    "powerlaw": lambda: powerlaw_graph(160, 1200, exponent=1.9, seed=5),
    "road": lambda: road_grid_graph(8, seed=3),
}

MAX_ITERATIONS = 3

CELLS = [(g, a, s) for g in GRAPHS for a in ALGORITHMS
         for s in EXTENDED_SCHEDULES]


def _hash(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _hashing(alg):
    """``alg`` with an ``edge_update`` that folds each argument tuple
    (dtype, shape and bytes) into a running hash before applying it."""
    h = hashlib.sha256()
    original = alg.edge_update

    def edge_update(state, bases, others, weights, eids):
        for arr in (bases, others, weights, eids):
            arr = np.ascontiguousarray(arr)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        original(state, bases, others, weights, eids)

    return dc_replace(alg, edge_update=edge_update), h


def run_cell(graph_name: str, alg_name: str, schedule: str,
             engine: str) -> dict:
    """Run one cell and return its integer fingerprint."""
    name, params = ALGORITHMS[alg_name]
    alg, calls = _hashing(make_algorithm(name, **params))
    graph = _graph(graph_name)
    # Pin the digest interval: other tests may leave theirs set.
    saved = get_digester().interval_cycles, os.environ.get(INTERVAL_ENV)
    digester = enable_digests(interval_cycles=DEFAULT_INTERVAL)
    digester.begin_job()
    try:
        result = GraphProcessor(
            alg, schedule=schedule, config=GPUConfig.vortex_bench(),
            engine=engine).run(graph, max_iterations=MAX_ITERATIONS)
        ledger = digester.take_ledger()
    finally:
        disable_digests(clear=True)
        digester.interval_cycles = saved[0]
        if saved[1] is None:
            os.environ.pop(INTERVAL_ENV, None)
        else:
            os.environ[INTERVAL_ENV] = saved[1]
    stats = result.stats
    cells = sorted([c, w, int(cat), v]
                   for (c, w, cat), v in stats.stall_cells.items() if v)
    values = np.ascontiguousarray(result.values)
    return {
        "cycles": int(result.total_cycles),
        "iterations": int(result.iterations),
        "instructions": int(stats.instructions),
        "op_counts": {op.name: int(v) for op, v
                      in sorted(stats.op_counts.items()) if v},
        "counters": {k: int(v) for k, v in sorted(stats.counters.items())
                     if v},
        "phase_cycles": {p.name: int(v) for p, v
                         in sorted(stats.phase_cycles.items()) if v},
        "stall_cycles": {c.name: int(v) for c, v
                         in sorted(stats.stall_cycles.items()) if v},
        "stall_cells": _hash(json.dumps(cells).encode()),
        "cache": {level: [int(cs.hits), int(cs.misses)]
                  for level, cs in sorted(stats.cache.items())},
        "dram_accesses": int(stats.dram_accesses),
        "ledger": _hash(json.dumps(ledger).encode()),
        "edge_updates": _hash(calls.digest()),
        "values": _hash(values.dtype.str.encode() + values.tobytes()),
    }


_GRAPH_CACHE: dict = {}


def _graph(name: str):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = GRAPHS[name]()
    return _GRAPH_CACHE[name]


def _key(graph_name: str, alg_name: str, schedule: str) -> str:
    return f"{graph_name}/{alg_name}/{schedule}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DATA.read_text())["cells"]


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(_key(*cell) for cell in CELLS)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("graph_name,alg_name,schedule", CELLS)
def test_stream_matches_golden(golden, graph_name, alg_name, schedule,
                               engine):
    got = run_cell(graph_name, alg_name, schedule, engine)
    assert got == golden[_key(graph_name, alg_name, schedule)]


def _write() -> None:
    cells = {}
    for cell in CELLS:
        ref = run_cell(*cell, engine="reference")
        fast = run_cell(*cell, engine="fast")
        if ref != fast:
            raise SystemExit(f"engines disagree on {_key(*cell)}")
        cells[_key(*cell)] = ref
    DATA.parent.mkdir(exist_ok=True)
    # One cell per line keeps diffs of this file readable.
    lines = [f" {json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
             for key in sorted(cells)]
    DATA.write_text('{"cells": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(cells)} cells to {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    _write()
