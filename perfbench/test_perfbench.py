"""Benchmark self-tests at a tiny size: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

TINY = ["--seconds", "0.1", "--scale", "0.1"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_run_tables():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [row[:3] for row in run.PER_LAYER]


@pytest.mark.parametrize("workload,extra", [
    ("matrix-skew", TINY),
    ("matrix-road", TINY),
    ("sweep-fleet", ["--seconds", "0.1", "--limit", "20"]),
])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, extra, trace):
    spec = declared()
    out = result("--workload", workload, "--seed", "1", "--trace",
                 str(trace), *extra)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    # A traced run also compares its traced passes' cycle counts with
    # its untraced passes (and, on the matrices, with the reference
    # engine), so zero failures means the wrappers changed no cycle.
    assert out["correct"] and out["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wrappers_leave_simulated_cycles_unchanged():
    import tracing
    import workloads as wl
    from repro.runtime.cache import values_digest

    spec = wl.skew_graph(3, scale=0.1)
    jobs = wl.matrix_jobs(spec, spec.build(), "fast")

    def run_all():
        return [(r.total_cycles, values_digest(r.values),
                 r.stats.stall_breakdown())
                for r in (job.execute() for job in jobs)]

    plain = run_all()
    rec = tracing.Recorder()
    tracing.install(rec, wl.SCHEDULES)
    try:
        traced = run_all()
    finally:
        rec.uninstall()
    assert traced == plain
    assert rec.counts["sim.kernels"] > 0
    assert rec.self_s["sched.gen"] > 0 and rec.self_s["sim.memory"] > 0
    assert run_all() == plain  # the originals are back


def test_wrong_output_counts_as_failed(monkeypatch):
    import passes
    import workloads as wl

    right = wl.oracle
    # Shift the CC oracle by one: the pass must flag its five cells.
    monkeypatch.setattr(wl, "oracle", lambda alg, graph: (
        right(alg, graph) + (1 if alg.name == "cc" else 0)))
    out = passes.run_matrix({"workload": "matrix-skew", "seed": 1,
                             "scale": 0.1, "check": "oracle"}, None)
    assert run.count_failures([out]) == (20, 5)
    assert {job["label"].split(":")[2].split("/")[0]
            for job in out["jobs"] if job["error"]} == {"cc"}


def test_cycle_mismatch_between_passes_counts_as_failed():
    job = {"label": "v0:0:pagerank", "cycles": 100, "error": ""}
    passes = [{"jobs": [job]}, {"jobs": [dict(job, cycles=101)]},
              {"jobs": [dict(job, error="status failed")]}]
    assert run.count_failures(passes) == (3, 2)


def test_second_seed_same_names_no_failures():
    first = result("--workload", "matrix-road", "--seed", "1", *TINY)
    second = result("--workload", "matrix-road", "--seed", "2", *TINY)
    assert set(first["metrics"]) == set(second["metrics"])
    assert second["failed"] == 0 and second["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "matrix-skew", "--seed", "1", *TINY,
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
