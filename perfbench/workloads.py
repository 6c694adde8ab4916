"""Seeded workload definitions and correctness checks.

Every graph comes from :mod:`repro.graph.generators` through
``GraphSpec.from_generator`` with a seed derived from ``--seed``; the
memoized fixed-seed dataset registry is never used, so two seeds give
two different inputs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import numpy as np

from repro import AlgorithmSpec, GraphSpec, JobSpec
from repro.frontend import reference

#: The Fig. 10 schedules: four software baselines plus SparseWeaver.
SCHEDULES = ("vertex_map", "edge_map", "warp_map", "cta_map", "sparseweaver")

#: Fixed PageRank length; BFS, SSSP and CC run to convergence.
PR_ITERATIONS = 3

#: Matrix graph sizes: one pass of the 4x5 matrix takes 2-3 s on a
#: 2-core x86 host, so a run holds several passes (and at least 100
#: job samples for a p90 with ten samples beyond it).
SKEW_VERTICES, SKEW_EDGES, SKEW_EXPONENT = 300, 4500, 1.9
ROAD_SIDE = 24


def graph_seed(seed: int, variant: int) -> int:
    """Generator seed of a matrix pass's graph (``run.VARIANTS`` per
    benchmark seed)."""
    return seed * 1000 + variant


def skew_graph(seed: int, scale: float = 1.0) -> GraphSpec:
    """Hollywood-like power-law graph (exponent 1.9)."""
    return GraphSpec.from_generator(
        "powerlaw_graph", num_vertices=max(16, int(SKEW_VERTICES * scale)),
        num_edges=max(32, int(SKEW_EDGES * scale)), exponent=SKEW_EXPONENT,
        seed=seed)


def road_graph(seed: int, scale: float = 1.0) -> GraphSpec:
    """Road-network analog: a 4-neighbour grid, max degree 4."""
    return GraphSpec.from_generator(
        "road_grid_graph", side=max(4, int(ROAD_SIDE * scale ** 0.5)),
        seed=seed)


def fleet_graphs(seed: int) -> Dict[str, GraphSpec]:
    """Seeded analogs of the nine Table III families at smoke size.

    Sizes follow the smallest recipe in ``repro.graph.datasets``; each
    family gets its own seed derived from ``seed``.
    """
    s = seed * 16
    gen = GraphSpec.from_generator
    return {
        "bio-human": gen("dense_community_graph", num_vertices=64,
                         avg_degree=8, hub_boost=60.0, seed=s + 1),
        "bio-mouse": gen("dense_community_graph", num_vertices=64,
                         avg_degree=6, hub_boost=50.0, seed=s + 2),
        "road-ca": gen("road_grid_graph", side=8, seed=s + 3),
        "road-central": gen("road_grid_graph", side=12, seed=s + 4),
        "graph500": gen("rmat_graph", scale=6, edge_factor=16, seed=s + 5),
        "collab": gen("powerlaw_graph", num_vertices=128, num_edges=512,
                      exponent=2.0, seed=s + 6),
        "hollywood": gen("powerlaw_graph", num_vertices=256,
                         num_edges=1024, exponent=1.9, seed=s + 7),
        "web-uk": gen("powerlaw_graph", num_vertices=96, num_edges=512,
                      exponent=1.95, seed=s + 8),
        "web-wiki": gen("powerlaw_graph", num_vertices=256,
                        num_edges=1024, exponent=2.2, seed=s + 9),
    }


def algorithms(source: int) -> List[AlgorithmSpec]:
    """PR, BFS, SSSP and CC; traversals start at ``source``."""
    return [AlgorithmSpec.of("pagerank", iterations=PR_ITERATIONS),
            AlgorithmSpec.of("bfs", source=source),
            AlgorithmSpec.of("sssp", source=source),
            AlgorithmSpec.of("cc")]


def hub(graph) -> int:
    """Traversal root: the highest-degree vertex nearest the middle id.

    Work then does not hinge on vertex 0 being isolated (power-law) or
    on a corner (road grid, where the middle id is the grid centre).
    """
    degrees = graph.degrees
    top = np.flatnonzero(degrees == degrees.max())
    return int(top[np.argmin(np.abs(top - graph.num_vertices // 2))])


def matrix_jobs(graph_spec: GraphSpec, graph, engine: str) -> List[JobSpec]:
    """The 4x5 paper matrix on one graph."""
    return [JobSpec(alg, graph_spec, sched, engine=engine)
            for alg in algorithms(hub(graph)) for sched in SCHEDULES]


def fleet_jobs(graphs: Dict[str, Tuple[GraphSpec, object]],
               engine: str) -> List[JobSpec]:
    """9 families x 4 algorithms x 5 schedules."""
    return [JobSpec(alg, spec, sched, engine=engine)
            for spec, graph in graphs.values()
            for alg in algorithms(hub(graph)) for sched in SCHEDULES]


# ----------------------------------------------------------------------
def oracle(alg: AlgorithmSpec, graph) -> np.ndarray:
    """The ``repro.frontend.reference`` answer for one algorithm."""
    params = dict(alg.params)
    if alg.name == "pagerank":
        return reference.pagerank(graph, iterations=params["iterations"])
    if alg.name == "bfs":
        return reference.bfs_levels(graph, params["source"])
    if alg.name == "sssp":
        return reference.sssp(graph, params["source"])
    return reference.connected_components(graph)


def check_values(alg: AlgorithmSpec, values: np.ndarray, expected) -> str:
    """Empty string when ``values`` match the oracle, else why not.

    BFS and CC must match exactly; PageRank and SSSP within float
    accumulation-order tolerance.
    """
    got = np.asarray(values, dtype=float)
    want = np.asarray(expected, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != oracle {want.shape}"
    if alg.name in ("bfs", "cc"):
        ok = np.array_equal(got, want)
    else:
        ok = np.allclose(got, want, rtol=1e-9, atol=1e-12)
    if ok:
        return ""
    bad = int(np.sum(~np.isclose(got, want, rtol=1e-9, atol=1e-12)))
    return f"{bad} of {got.size} values differ from the oracle"


def summary_digest(summary_dict: dict) -> str:
    """Digest of a ``RunSummary.to_dict()``: equal digests mean equal
    cycles, stall and phase breakdowns, cache counts and values."""
    raw = json.dumps(summary_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()
