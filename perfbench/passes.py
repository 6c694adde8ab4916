"""One measured pass of a workload, in a fresh interpreter.

Run as ``python3 perfbench/passes.py '<json config>'`` by ``run.py``.
The pass prints ``READY`` once its set-up is done (imports, graphs,
job expansion and, on the fleet, coordinator bind plus both workers
connected), then runs the timed phase, checks the outputs, and prints
one JSON line with its measurements.  Set-up time is measured by the
parent from process start to the ``READY`` line.

Config keys: ``workload``, ``seed``, ``trace`` (install the outside-in
wrappers), ``check`` (``"oracle"``, ``"reference"`` to also re-run each
matrix job on the reference engine, or ``"serial"`` to also run the
fleet specs serially in-process), ``out`` (scratch directory inside the
checkout), ``scale`` (matrix graph size multiplier), ``variant`` (which of
the seed's matrix graphs) and ``limit`` (first N fleet jobs only).
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fleet size: one worker per core of the 2-core reference host, fixed
#: so that figures from hosts with more cores stay comparable.
WORKERS = 2


def _import_repro() -> float:
    start = perf_counter()
    sys.path.insert(0, SRC)
    import repro  # noqa: F401

    return perf_counter() - start


def _rss_mb() -> float:
    """Peak RSS of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _proc_cpu(pid: int) -> float:
    """CPU seconds (user + system) of a live child, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _stats_totals(stats_list) -> dict:
    """Modelled-machine totals over a list of ``KernelStats``."""
    from repro.sim.stats import StallCat

    cycles = sum(s.total_cycles for s in stats_list)
    instructions = sum(s.instructions for s in stats_list)
    hits = defaultdict(int)
    accesses = defaultdict(int)
    stalls = defaultdict(int)
    dram = 0
    for s in stats_list:
        for level, cs in s.cache.items():
            hits[level.lower()] += cs.hits
            accesses[level.lower()] += cs.accesses
        for cat, c in s.stall_cycles.items():
            stalls[StallCat(cat)] += c
        dram += s.dram_accesses
    stall_total = sum(stalls.values()) or 1
    return {
        "sim.cycles": cycles,
        "sim.instructions": instructions,
        "sim.ipc": instructions / cycles if cycles else 0.0,
        "sim.l1_hit_rate": (hits["l1"] / accesses["l1"]
                            if accesses["l1"] else 0.0),
        "sim.l2_hit_rate": (hits["l2"] / accesses["l2"]
                            if accesses["l2"] else 0.0),
        "sim.dram_accesses": dram,
        "sim.stall_frac.memory": stalls[StallCat.MEMORY] / stall_total,
        "sim.stall_frac.weaver": stalls[StallCat.WEAVER] / stall_total,
    }


def _sw_speedup(jobs, cycles) -> float:
    """Geomean over (graph, algorithm) of S_vm cycles / SparseWeaver."""
    by_cell = {}
    for spec, cyc in zip(jobs, cycles):
        by_cell[(spec.graph.name, spec.graph.params, spec.algorithm,
                 spec.schedule)] = cyc
    ratios = [by_cell[key[:3] + ("vertex_map",)] / cyc
              for key, cyc in by_cell.items()
              if key[3] == "sparseweaver" and cyc
              and by_cell.get(key[:3] + ("vertex_map",))]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


# ----------------------------------------------------------------------
def run_matrix(cfg: dict, rec) -> dict:
    from repro import JobSpec
    from repro.runtime.cache import values_digest
    import workloads as wl

    scale = float(cfg.get("scale", 1.0))
    make = wl.skew_graph if cfg["workload"] == "matrix-skew" else wl.road_graph
    graph_spec = make(wl.graph_seed(cfg["seed"], cfg.get("variant", 0)),
                      scale)
    graph = graph_spec.build()
    jobs = wl.matrix_jobs(graph_spec, graph, "fast")
    print("READY", flush=True)

    results = []
    errors = []
    latencies = []
    fsm_cycles = 0
    cpu0 = process_time()
    t0 = perf_counter()
    root = rec.enter(True) if rec else None
    for spec in jobs:
        start = perf_counter()
        try:
            if rec is None:
                result = spec.execute()
            else:
                rec.job = spec.label
                with rec.span("bench.job", "bench"):
                    result = spec.execute()
                fsm_cycles += sum(u.total_fsm_cycles
                                  for u in rec.take_units())
            error = ""
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - start)
        results.append(result)
        errors.append(error)
    if rec is not None:
        rec.job = ""
        rec.leave(root, "bench.pass", "bench")
    wall = perf_counter() - t0
    cpu = process_time() - cpu0

    if rec is not None:
        rec.counts["core.fsm_cycles"] += fsm_cycles
        rec.uninstall()
    for i, (spec, result) in enumerate(zip(jobs, results)):
        if result is None:
            continue
        errors[i] = errors[i] or wl.check_values(
            spec.algorithm, result.values, wl.oracle(spec.algorithm, graph))

    if cfg.get("check") == "reference":
        for i, (spec, result) in enumerate(zip(jobs, results)):
            if result is None or errors[i]:
                continue
            ref = JobSpec(spec.algorithm, spec.graph, spec.schedule,
                          engine="reference").execute()
            if ref.total_cycles != result.total_cycles:
                errors[i] = (f"reference engine ran {ref.total_cycles} "
                             f"cycles, fast ran {result.total_cycles}")
            elif values_digest(ref.values) != values_digest(result.values):
                errors[i] = "reference and fast engines disagree on values"

    ok = [r for r, e in zip(results, errors) if r is not None]
    out = {
        "wall": wall, "cpu": cpu, "latencies": latencies,
        "jobs": [{"label": f"v{cfg.get('variant', 0)}:{i}:{s.label}",
                  "cycles": r.total_cycles if r is not None else None,
                  "error": e}
                 for i, (s, r, e) in enumerate(zip(jobs, results, errors))],
        "layer": _stats_totals([r.stats for r in ok]),
        "rss_mb": _rss_mb(),
    }
    out["layer"]["core.sw_speedup"] = _sw_speedup(
        jobs, [r.total_cycles if r is not None else 0 for r in results])
    return out


# ----------------------------------------------------------------------
def _spawn_worker(address: str, cfg: dict, index: int, tmp: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if cfg.get("trace"):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), address,
               os.path.join(tmp, f"worker{index}.json")]
    else:
        cmd = [sys.executable, "-m", "repro", "work", address,
               "--reconnect", "0"]
    return subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)


def _stop(procs, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    for proc in procs:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_fleet(cfg: dict, rec) -> dict:
    from repro import BatchEngine, Coordinator, ResultCache, RunJournal
    import workloads as wl

    built = {name: (spec, spec.build())
             for name, spec in wl.fleet_graphs(cfg["seed"]).items()}
    jobs = wl.fleet_jobs(built, "fast")
    if cfg.get("limit"):
        jobs = jobs[:int(cfg["limit"])]
    os.makedirs(cfg["out"], exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="fleet-", dir=cfg["out"])
    procs = []
    coord = None
    try:
        cache = ResultCache(os.path.join(tmp, "cache"))
        journal = RunJournal(os.path.join(tmp, "journal.jsonl"))
        coord = Coordinator("127.0.0.1:0", cache=cache, journal=journal)
        coord.start()
        connect0 = perf_counter()
        procs = [_spawn_worker(coord.address, cfg, i, tmp)
                 for i in range(WORKERS)]
        while coord.fleet_stats()["workers_alive"] < WORKERS:
            if any(p.poll() is not None for p in procs):
                raise RuntimeError("a fleet worker exited before "
                                   "connecting")
            if perf_counter() - connect0 > 60:
                raise RuntimeError("fleet workers did not connect in 60 s")
            time.sleep(0.005)
        connect_s = perf_counter() - connect0
        print("READY", flush=True)

        worker_cpu0 = sum(_proc_cpu(p.pid) for p in procs)
        cpu0 = process_time()
        t0 = perf_counter()
        outcomes = coord.run(jobs)
        wall = perf_counter() - t0
        cpu = (process_time() - cpu0
               + sum(_proc_cpu(p.pid) for p in procs) - worker_cpu0)

        w0 = perf_counter()
        hits0 = cache.hits
        warm = BatchEngine(jobs=1, cache=cache).run(jobs)
        warm_s = perf_counter() - w0
        hit_frac = (cache.hits - hits0) / len(jobs)
        coord.close()
        _stop(procs)
        procs = []
        if rec is not None:
            rec.uninstall()

        errors = []
        digests = []
        for cold, hot in zip(outcomes, warm):
            if cold.status != "ok":
                errors.append(f"status {cold.status}: {cold.error}")
                digests.append(None)
                continue
            digest = wl.summary_digest(cold.summary.to_dict())
            digests.append(digest)
            if (hot.status != "cached"
                    or wl.summary_digest(hot.summary.to_dict()) != digest):
                errors.append("warm cache pass disagrees with the fleet")
            else:
                errors.append("")
        if cfg.get("check") == "serial":
            serial = BatchEngine(jobs=1).run(jobs)
            for i, outcome in enumerate(serial):
                if errors[i]:
                    continue
                if (not outcome.ok or wl.summary_digest(
                        outcome.summary.to_dict()) != digests[i]):
                    errors[i] = "fleet summary differs from a serial run"

        ok = [o.summary for o in outcomes if o.status == "ok"]
        out = {
            "wall": wall, "cpu": cpu, "connect_s": connect_s,
            "latencies": [o.wall_seconds for o in outcomes],
            "jobs": [{"label": f"{i}:{s.label}",
                      "cycles": o.summary.total_cycles if o.ok else None,
                      "digest": d, "error": e}
                     for i, (s, o, d, e) in enumerate(
                         zip(jobs, outcomes, digests, errors))],
            "layer": _stats_totals([s.stats for s in ok]),
            "warm_s": warm_s, "hit_frac": hit_frac,
            "rss_mb": _rss_mb(),
        }
        out["layer"]["core.sw_speedup"] = _sw_speedup(
            jobs, [o.summary.total_cycles if o.ok else 0 for o in outcomes])
        out["worker_dumps"] = []
        if cfg.get("trace"):
            for i in range(WORKERS):
                with open(os.path.join(tmp, f"worker{i}.json")) as fh:
                    out["worker_dumps"].append(json.load(fh))
        return out
    finally:
        if coord is not None:
            coord.close()
        for proc in procs:
            proc.kill()
        _stop(procs, timeout=5.0)
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
def main(argv) -> int:
    cfg = json.loads(argv[1])
    sys.path.insert(0, HERE)
    import_s = _import_repro()
    rec = None
    if cfg.get("trace"):
        import tracing
        from workloads import SCHEDULES

        rec = tracing.Recorder()
        tracing.install(rec, SCHEDULES)
    runner = run_fleet if cfg["workload"] == "sweep-fleet" else run_matrix
    out = runner(cfg, rec)
    out["import_s"] = import_s
    if rec is not None:
        out["dump"] = rec.dump()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
