"""Paper-matrix benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, from the root of a checkout.

Each pass of a workload runs in a fresh interpreter (``passes.py``), so
set-up time covers interpreter start, ``import repro``, graph generation
and job expansion every time.  Passes repeat until ``--seconds`` have
been spent (at least enough for medians and a p90 with ten samples
beyond it).  The last stdout line is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: The workloads BENCHMARK.json declares.
WORKLOADS = ("matrix-skew", "sweep-fleet")

#: Runnable by hand but not declared: on a shared 2-core host its
#: figures spread past the 25% bound between runs of the same code.
BY_HAND = ("matrix-road",)

#: Jobs in one pass: the 4x5 matrix, or 9 families x 4 x 5.
JOBS = {"matrix-skew": 20, "matrix-road": 20, "sweep-fleet": 180}

#: (name, unit, better) of the end-to-end metrics, measured untraced.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
)

#: (name, unit, better, end-to-end metric and workload it should move).
PER_LAYER = (
    ("graph.build_s", "s", "lower",
     "setup_s on all; job_p50_s on sweep-fleet"),
    ("graph.edges", "count", "lower", "setup_s on all"),
    ("frontend.run_s", "s", "lower", "wall_s on both workloads"),
    ("frontend.launches", "count", "lower", "wall_s on both workloads"),
    ("frontend.iterations", "count", "lower", "wall_s on both workloads"),
    ("sched.factory_s", "s", "lower", "wall_s on both workloads"),
    ("sched.gen_s", "s", "lower", "wall_s on both workloads"),
    ("sched.instructions", "count", "lower", "wall_s on both workloads"),
    ("sim.loop_s", "s", "lower", "sim_cycles_per_s on matrix-skew"),
    ("sim.memory_s", "s", "lower", "wall_s on both workloads"),
    ("sim.kernels", "count", "lower", "wall_s on matrix-skew"),
    ("sim.replayed", "count", "higher", "wall_s on matrix-skew"),
    ("sim.fallback.unit", "count", "lower", "wall_s on matrix-skew"),
    ("sim.fallback.no_hint", "count", "lower", "wall_s on matrix-skew"),
    ("sim.fallback.tracer", "count", "lower", "wall_s on matrix-skew"),
    ("sim.replay_frac", "frac", "higher", "wall_s on matrix-skew"),
    ("sim.cycles", "cycles", "lower", "none: fixed by the model"),
    ("sim.instructions", "count", "lower", "none: fixed by the model"),
    ("sim.ipc", "1/cycle", "higher", "none: fixed by the model"),
    ("sim.l1_hit_rate", "frac", "higher", "none: fixed by the model"),
    ("sim.l2_hit_rate", "frac", "higher", "none: fixed by the model"),
    ("sim.dram_accesses", "count", "lower", "none: fixed by the model"),
    ("sim.stall_frac.memory", "frac", "lower", "none: fixed by the model"),
    ("sim.stall_frac.weaver", "frac", "lower", "none: fixed by the model"),
    ("core.unit_s", "s", "lower", "wall_s on both workloads"),
    ("core.unit_calls", "count", "lower", "wall_s on both workloads"),
    ("core.fsm_cycles", "cycles", "lower", "none: fixed by the model"),
    ("core.sw_speedup", "x", "higher", "none: fixed by the model"),
    ("runtime.dispatch_s", "s", "lower", "wall_s, job_p50_s on sweep-fleet"),
    ("runtime.hash_s", "s", "lower", "wall_s, job_p50_s on sweep-fleet"),
    ("runtime.cache_put_s", "s", "lower", "wall_s, job_p50_s on sweep-fleet"),
    ("runtime.journal_s", "s", "lower", "wall_s, job_p50_s on sweep-fleet"),
    ("runtime.summary_s", "s", "lower", "wall_s, job_p50_s on sweep-fleet"),
    ("runtime.cache_get_s", "s", "lower", "none: warm read path only"),
    ("runtime.warm_s", "s", "lower", "none: warm read path only"),
    ("runtime.hit_frac", "frac", "higher", "none: warm read path only"),
    ("dist.connect_s", "s", "lower", "setup_s on sweep-fleet"),
    ("dist.lease_wait_s", "s", "lower", "wall_s, cpu_s on sweep-fleet"),
    ("dist.worker_busy_frac", "frac", "higher",
     "wall_s, cpu_s on sweep-fleet"),
    ("dist.messages", "count", "lower", "wall_s, cpu_s on sweep-fleet"),
    ("dist.bytes", "bytes", "lower", "wall_s, cpu_s on sweep-fleet"),
    ("host.import_s", "s", "lower", "setup_s on all"),
    ("host.unattributed_s", "s", "lower", "wall_s on all"),
    ("obs.trace_overhead", "frac", "lower", "none: tracing cost"),
    ("host.calib_s", "s", "lower", "none: host-speed sentinel"),
)

#: Matrix passes cycle through this many graphs drawn from ``--seed``
#: and cover each at least once, so a run's figures average over graph
#: shapes rather than resting on one draw.
VARIANTS = 4

#: Seconds after which a pass is killed and its jobs count as failed.
PASS_TIMEOUT = 100.0

#: Share of ``--seconds`` the traced run spends on untraced passes, the
#: baseline for ``obs.trace_overhead``.
UNTRACED_SHARE = 0.35


def calibrate() -> float:
    """Host-noise sentinel: seconds for a fixed pure-Python loop."""
    start = perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def quantile(values, q: float) -> float:
    """Quantile with linear interpolation between the closest ranks."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def min_passes(jobs: int) -> int:
    """Enough passes for medians and for ten samples beyond the p90."""
    return max(3, math.ceil(100 / jobs))


# ----------------------------------------------------------------------
def run_pass(cfg: dict, jobs: int) -> dict:
    """Run one pass in a fresh interpreter; failures become a result
    whose jobs all failed."""
    cmd = [sys.executable, os.path.join(HERE, "passes.py"), json.dumps(cfg)]
    start = perf_counter()
    setup = None
    last = ""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # A hung pass must not outlive the run's time limit.
    watchdog = threading.Timer(PASS_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "READY" and setup is None:
                setup = perf_counter() - start
            elif line:
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    try:
        result = json.loads(last) if code == 0 else None
    except json.JSONDecodeError:
        result = None
    if result is None or setup is None:
        print(f"perfbench: pass exited with code {code}", file=sys.stderr)
        return {"crashed": True, "jobs": [{"label": f"job{i}",
                                           "cycles": None,
                                           "error": "pass crashed"}
                                          for i in range(jobs)]}
    result["setup_s"] = setup
    return result


def run_passes(base: dict, jobs: int, until: float, at_least: int,
               first_check: str, variants: int) -> list:
    """Passes until ``until`` (a perf_counter deadline), at least
    ``at_least`` of them and one on each of the ``variants`` graphs;
    the first pass also runs ``first_check``."""
    passes = []
    while len(passes) < max(at_least, variants) or perf_counter() < until:
        cfg = dict(base, variant=len(passes) % variants,
                   check=first_check if not passes else "oracle")
        passes.append(dict(run_pass(cfg, jobs), variant=cfg["variant"]))
    return passes


def count_failures(passes: list) -> tuple:
    """(attempted, failed).  A job fails if it raised, its status was
    not ok, its output missed the oracle, or its simulated cycles (or
    fleet summary) differ from the same job in another pass."""
    attempted = failed = 0
    first = {}
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            key = (job["cycles"], job.get("digest"))
            if job["error"] or job["cycles"] is None:
                failed += 1
                print(f"perfbench: {job['label']}: {job['error']}",
                      file=sys.stderr)
                continue
            ref = first.setdefault(job["label"], key)
            if key != ref:
                failed += 1
                print(f"perfbench: {job['label']}: ran {key} here, "
                      f"{ref} in an earlier pass", file=sys.stderr)
    return attempted, failed


def per_graph(passes: list, key) -> list:
    """Median of ``key(pass)`` over the passes on each graph variant."""
    groups = defaultdict(list)
    for p in passes:
        groups[p["variant"]].append(key(p))
    return [statistics.median(v) for _k, v in sorted(groups.items())]


def per_job(passes: list, q: float) -> list:
    """Per graph variant, the ``q`` quantile over jobs of each job's
    median latency over the passes on that graph."""
    groups = defaultdict(lambda: defaultdict(list))
    for p in passes:
        for i, latency in enumerate(p["latencies"]):
            groups[p["variant"]][i].append(latency)
    return [quantile([statistics.median(v) for v in jobs.values()], q)
            for _k, jobs in sorted(groups.items())]


def end_to_end(passes: list) -> dict:
    """Times are per-graph medians over passes, averaged over the
    graphs, so the pass count cannot tilt the mix of graphs.  The p50
    and p90 take each job's median first: the 20 matrix jobs fall into
    latency groups far apart, and a quantile pooled over passes would
    sit on the edge of a group and jump between groups."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = per_graph(passes, lambda p: p["wall"])
    cycles = per_graph(passes, lambda p: p["layer"]["sim.cycles"])
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(per_graph(passes, lambda p: p["cpu"])),
        "sim_cycles_per_s": sum(cycles) / sum(walls),
        "job_p50_s": statistics.fmean(per_job(passes, 0.5)),
        "job_p90_s": statistics.fmean(per_job(passes, 0.9)),
        "peak_rss_mb": max([own] + [p["rss_mb"] for p in passes]),
    }


def pass_dumps(p: dict) -> list:
    """Span dumps of a traced pass: its own, then each worker's."""
    return [p["dump"]] + p.get("worker_dumps", [])


def merge_dumps(dumps: list) -> tuple:
    """Summed (self_s, calls, counts) over processes, missing keys 0."""
    merged = (defaultdict(float), defaultdict(int), defaultdict(float))
    for d in dumps:
        for src, dst in zip((d["self_s"], d["calls"], d["counts"]), merged):
            for k, v in src.items():
                dst[k] += v
    return merged


def per_layer(traced: list, untraced: list, calib: float) -> dict:
    """Per-layer metrics: medians over traced passes."""
    rows = []
    for p in traced:
        s, calls, c = merge_dumps(pass_dumps(p))
        kernels = c["sim.kernels"]
        row = dict(p["layer"])
        row.update({
            "graph.build_s": s["graph.build"],
            "graph.edges": c["graph.edges"],
            "frontend.run_s": s["frontend.run"],
            "frontend.launches": c["frontend.launches"],
            "frontend.iterations": c["frontend.iterations"],
            "sched.factory_s": s["sched.factory"],
            "sched.gen_s": s["sched.gen"],
            "sched.instructions": c["sched.instructions"],
            "sim.loop_s": s["sim.run_kernel"],
            "sim.memory_s": s["sim.memory"],
            "sim.kernels": kernels,
            "sim.replayed": c["sim.replayed"],
            "sim.fallback.unit": c["sim.fallback.unit"],
            "sim.fallback.no_hint": c["sim.fallback.no_hint"],
            "sim.fallback.tracer": c["sim.fallback.tracer"],
            "sim.replay_frac": (c["sim.replayed"] / kernels
                                if kernels else 0.0),
            "core.unit_s": s["core.unit"],
            "core.unit_calls": calls["core.unit"],
            "core.fsm_cycles": c["core.fsm_cycles"],
            "runtime.dispatch_s": s["runtime.dispatch"],
            "runtime.hash_s": s["runtime.hash"],
            "runtime.cache_put_s": s["runtime.cache_put"],
            "runtime.journal_s": s["runtime.journal"],
            "runtime.summary_s": s["runtime.summary"],
            "runtime.cache_get_s": s["runtime.cache_get"],
            "runtime.warm_s": p.get("warm_s", 0.0),
            "runtime.hit_frac": p.get("hit_frac", 0.0),
            "dist.connect_s": p.get("connect_s", 0.0),
            "dist.lease_wait_s": c["dist.lease_wait_s"],
            "dist.worker_busy_frac": (c["dist.busy_s"] / c["dist.worker_s"]
                                      if c["dist.worker_s"] else 0.0),
            "dist.messages": c["dist.messages"],
            "dist.bytes": c["dist.bytes"],
            "host.import_s": p["import_s"],
            "host.unattributed_s": sum(v for k, v in s.items()
                                       if k.startswith("bench.")),
        })
        rows.append(row)
    out = {name: statistics.median(r[name] for r in rows)
           for name in rows[0]}
    out["obs.trace_overhead"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced) - 1.0)
    out["host.calib_s"] = calib
    return out


def write_trace(workload: str, seed: int, traced: dict) -> None:
    """Chrome trace and self-time table of one traced pass."""
    import tracing

    dumps = pass_dumps(traced)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    with open(stem + "-trace.json", "w") as fh:
        json.dump(tracing.chrome_trace(dumps), fh)
    self_s, calls, _counts = merge_dumps(dumps)
    with open(stem + "-layers.txt", "w") as fh:
        fh.write(tracing.self_time_table(self_s, calls))
    print(f"perfbench: wrote {stem}-trace.json and {stem}-layers.txt",
          file=sys.stderr)


# ----------------------------------------------------------------------
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + BY_HAND)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="matrix graph size multiplier (self-tests)")
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first N fleet jobs (self-tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    jobs = JOBS[args.workload]
    if args.workload == "sweep-fleet" and args.limit:
        jobs = min(jobs, args.limit)
    fleet = args.workload == "sweep-fleet"
    base = {"workload": args.workload, "seed": args.seed, "out": OUT,
            "scale": args.scale, "limit": args.limit}
    first_check = "serial" if fleet else "oracle"
    need = min_passes(jobs)
    variants = 1 if fleet else VARIANTS

    calib_before = calibrate()
    start = perf_counter()
    if not args.trace:
        untraced = run_passes(base, jobs, start + args.seconds, need,
                              first_check, variants)
        traced = []
    else:
        untraced = run_passes(base, jobs,
                              start + UNTRACED_SHARE * args.seconds, 1,
                              "oracle", 1)
        traced = run_passes(dict(base, trace=True), jobs,
                            start + args.seconds, 1,
                            "serial" if fleet else "reference", 1)
    calib_after = calibrate()
    calib = (calib_before + calib_after) / 2.0
    print(f"perfbench: host.calib_s {calib_before:.4f} before, "
          f"{calib_after:.4f} after", file=sys.stderr)

    passes = untraced + traced
    attempted, failed = count_failures(passes)
    good_untraced = [p for p in untraced if not p.get("crashed")]
    good_traced = [p for p in traced if not p.get("crashed")]
    if not good_untraced or (args.trace and not good_traced):
        print("perfbench: every pass crashed", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(good_traced, good_untraced, calib)
        write_trace(args.workload, args.seed, good_traced[0])
        units = {name: unit for name, unit, _b, _m in PER_LAYER}
    else:
        values = end_to_end(good_untraced)
        values["ok_frac"] = 1.0 - failed / attempted
        units = {name: unit for name, unit, _b in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
