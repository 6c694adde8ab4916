"""Host profiler: phases, sampler, history, bit-identical cycles."""

import json
import time

import pytest

from repro.graph import powerlaw_graph
from repro.obs.profile import (OP_BUCKETS, PerfHistory, PhaseProfiler,
                               StackSampler, disable_profiling,
                               enable_profiling, format_trajectory,
                               get_profiler, git_commit, phase,
                               profiling_enabled)
from repro.runtime import AlgorithmSpec, BatchEngine, GraphSpec, JobSpec
from repro.sim import GPUConfig


@pytest.fixture
def global_profiler():
    """Enable the process-global profiler for one test, then restore."""
    was_enabled = profiling_enabled()
    profiler = enable_profiling()
    profiler.clear()
    yield profiler
    profiler.clear()
    if not was_enabled:
        disable_profiling()


def tiny_job(schedule="sparseweaver", engine=None):
    return JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=2),
        graph=GraphSpec.inline(powerlaw_graph(120, 500, seed=1),
                               name="pl-a"),
        schedule=schedule,
        config=GPUConfig.vortex_tiny(),
        max_iterations=2,
        engine=engine,
    )


# ----------------------------------------------------------------------
# PhaseProfiler accumulators
# ----------------------------------------------------------------------
def test_add_accumulates_seconds_and_calls():
    p = PhaseProfiler(enabled=True)
    p.add("schedule", 0.25)
    p.add("schedule", 0.75, calls=3)
    assert p.phases["schedule"] == [1.0, 4]


def test_add_op_feeds_execute_phase_and_histogram():
    p = PhaseProfiler(enabled=True)
    p.add_op("LOAD", 2e-6)
    p.add_op("LOAD", 2e-5)
    p.add_op("STORE", 1e-3)
    assert p.phases["execute"][1] == 3
    assert p.ops["LOAD"][1] == 2
    assert sum(p.ops["LOAD"][2]) == 2
    # 1e-3 is exactly a bucket bound; bisect_left keeps it inside.
    assert sum(p.ops["STORE"][2]) == 1


def test_coverage_excludes_nested_phases():
    p = PhaseProfiler(enabled=True)
    p.add("execute", 0.6)
    p.add("schedule", 0.3)
    p.add("fast/trace", 0.5)  # nested: not re-counted
    p.add_kernel(cycles=1000, wall_seconds=1.0)
    assert p.coverage() == pytest.approx(0.9)
    assert p.cycles_per_wall_second() == pytest.approx(1000.0)


def test_summary_orders_phases_and_computes_op_percentiles():
    p = PhaseProfiler(enabled=True)
    p.add("schedule", 0.1)
    p.add("execute", 0.0)
    for _ in range(99):
        p.add_op("LOAD", 2e-6)
    p.add_op("LOAD", 5e-3)
    p.add_kernel(cycles=10, wall_seconds=0.2)
    data = p.summary()
    assert data["phases"][0]["phase"] == "schedule"
    (op,) = data["ops"]
    assert op["op"] == "LOAD" and op["calls"] == 100
    assert op["p50_us"] == pytest.approx(2.5)   # bucket upper bound
    assert op["p99_us"] == pytest.approx(2.5)
    payload = p.summary_payload(top=1)
    assert payload["kernels"] == 1
    assert payload["top_phases"] == [["schedule", 0.1, 1]]
    assert "schedule" in p.format()


def test_snapshot_merge_round_trip():
    a = PhaseProfiler(enabled=True)
    a.add("schedule", 0.5, calls=7)
    a.add_op("LOAD", 3e-6)
    a.add_kernel(cycles=500, wall_seconds=1.0)
    b = PhaseProfiler(enabled=True)
    b.merge_snapshot(json.loads(json.dumps(a.snapshot())))
    b.merge_snapshot(a.snapshot())
    assert b.kernels == 2
    assert b.sim_cycles == 1000
    assert b.phases["schedule"] == [1.0, 14]
    assert b.ops["LOAD"][1] == 2


def test_merge_snapshot_noop_when_disabled():
    src = PhaseProfiler(enabled=True)
    src.add("schedule", 1.0)
    dst = PhaseProfiler(enabled=False)
    dst.merge_snapshot(src.snapshot())
    assert not dst.phases


def test_merge_snapshot_rejects_bucket_mismatch():
    src = PhaseProfiler(enabled=True)
    src.add_op("LOAD", 1e-6)
    snap = src.snapshot()
    snap["profile"]["ops"]["LOAD"]["counts"] = [1, 2]
    dst = PhaseProfiler(enabled=True)
    with pytest.raises(ValueError, match="bucket mismatch"):
        dst.merge_snapshot(snap)


def test_save_writes_mergeable_snapshot(tmp_path):
    p = PhaseProfiler(enabled=True)
    p.add("execute", 0.5)
    path = p.save(tmp_path / "deep" / "profile.json")
    doc = json.loads(path.read_text())
    assert doc["profile"]["phases"]["execute"]["seconds"] == 0.5


def test_end_kernel_publishes_deltas_to_metrics():
    from repro.obs.metrics import (disable_metrics, enable_metrics,
                                   metrics_enabled)

    was = metrics_enabled()
    registry = enable_metrics()
    registry.clear()
    try:
        p = PhaseProfiler(enabled=True)
        p.add("schedule", 1.0, calls=10)
        p.add_kernel(cycles=100, wall_seconds=2.0)
        p.add("schedule", 0.5, calls=5)
        p.add_kernel(cycles=100, wall_seconds=1.0)
        seconds = registry.counter("sim_profile_phase_seconds_total")
        # Deltas, not totals: two publications must not double-count.
        assert seconds.value(phase="schedule") == pytest.approx(1.5)
        calls = registry.counter("sim_profile_phase_calls_total")
        assert calls.value(phase="schedule") == 15
    finally:
        registry.clear()
        if not was:
            disable_metrics()


# ----------------------------------------------------------------------
# phase() context manager + global switches
# ----------------------------------------------------------------------
def test_phase_contextmanager_records_only_when_enabled(global_profiler):
    with phase("stats/merge"):
        pass
    assert global_profiler.phases["stats/merge"][1] == 1
    disable_profiling()
    with phase("stats/merge"):
        pass
    assert global_profiler.phases["stats/merge"][1] == 1


def test_enable_profiling_exports_env(global_profiler):
    import os

    assert os.environ.get("REPRO_PROFILE") == "1"
    assert get_profiler() is global_profiler
    disable_profiling()
    assert "REPRO_PROFILE" not in os.environ


# ----------------------------------------------------------------------
# The simulator contract: off = bit-identical, on = covered
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("schedule", ["sparseweaver", "vertex_map"])
def test_cycles_bit_identical_with_profiler_on_and_off(schedule, engine):
    """Profiling never changes cycles, and the top-level phases cover
    replayed kernels (fast + vertex_map) as well as live ones."""
    assert not profiling_enabled()
    baseline = tiny_job(schedule, engine).execute().stats.total_cycles
    try:
        profiler = enable_profiling()
        profiler.clear()
        profiled = tiny_job(schedule, engine).execute().stats.total_cycles
        assert profiler.kernels > 0
        assert profiler.coverage() >= 0.90
        assert profiled == baseline
    finally:
        get_profiler().clear()
        disable_profiling()


def test_batch_engine_emits_profile_summary_before_batch_summary(
        tmp_path, global_profiler):
    from repro.runtime import Telemetry

    sink = tmp_path / "events.jsonl"
    engine = BatchEngine(jobs=1, cache=None, telemetry=Telemetry(sink))
    outcomes = engine.run([tiny_job()])
    assert all(o.status == "ok" for o in outcomes)
    kinds = [json.loads(line)["kind"]
             for line in sink.read_text().splitlines()]
    assert "profile_summary" in kinds
    # tail exits on batch_summary, so the profile must precede it.
    assert kinds.index("profile_summary") < kinds.index("batch_summary")


def test_pool_workers_ship_profile_snapshots(global_profiler):
    engine = BatchEngine(jobs=2, cache=None)
    outcomes = engine.run([tiny_job()])
    assert all(o.status == "ok" for o in outcomes)
    assert global_profiler.kernels > 0
    assert "execute" in global_profiler.phases


# ----------------------------------------------------------------------
# StackSampler
# ----------------------------------------------------------------------
def _burn(deadline: float) -> int:
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


def test_sampler_collapsed_and_trace_events(tmp_path):
    sampler = StackSampler(interval=0.001)
    with sampler:
        _burn(time.perf_counter() + 0.25)
    assert sampler.samples, "no samples in 250ms of busy work"
    lines = sampler.collapsed()
    assert any("_burn" in line for line in lines)
    head = lines[0].rsplit(" ", 1)
    assert head[1].isdigit() and ";" in head[0]
    path = sampler.save_collapsed(tmp_path / "flame.collapsed")
    assert path.read_text().strip()

    events = sampler.trace_events(epoch=sampler.samples[0][0])
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["cat"] == "host_sample" for e in spans)
    assert all(e["ts"] >= 0 for e in spans)
    # Metadata rows name the synthetic sampler process.
    assert any(e["ph"] == "M" and e["name"] == "process_name"
               for e in events)


def test_sampler_stop_is_idempotent_and_bounded():
    sampler = StackSampler(interval=0.001, max_samples=3)
    sampler.start()
    sampler.start()  # idempotent
    _burn(time.perf_counter() + 0.05)
    sampler.stop()
    sampler.stop()
    assert len(sampler.samples) <= 3
    assert sampler.trace_events() == [] or sampler.samples


def test_sampler_trace_events_empty_without_samples():
    assert StackSampler().trace_events() == []


# ----------------------------------------------------------------------
# PerfHistory
# ----------------------------------------------------------------------
def entry(rate, commit="abc123", schema=2):
    return {"schema": schema, "git_commit": commit, "time": 1.0,
            "simulator_version": 1,
            "metrics": {"jobs_per_second": rate,
                        "simulated_cycles_per_second": rate * 1000,
                        "cache_hit_latency_seconds": 0.001,
                        "peak_rss_bytes": 42 * 2 ** 20}}


def test_history_append_load_round_trip(tmp_path):
    history = PerfHistory(tmp_path / "hist.jsonl")
    history.append(entry(10.0))
    history.append(entry(11.0))
    assert [e["metrics"]["jobs_per_second"] for e in history.load()] \
        == [10.0, 11.0]
    assert history.bad_lines == 0


def test_history_tolerates_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "hist.jsonl"
    path.write_text(json.dumps(entry(10.0)) + "\n"
                    + '{"torn": tru\n'
                    + "not json at all\n"
                    + json.dumps({"no_metrics": 1}) + "\n"
                    + json.dumps(entry(12.0)) + "\n")
    history = PerfHistory(path)
    assert len(history.load()) == 2
    assert history.bad_lines == 3
    assert history.latest()["metrics"]["jobs_per_second"] == 12.0


def test_history_missing_file_is_empty(tmp_path):
    history = PerfHistory(tmp_path / "absent.jsonl")
    assert history.load() == []
    assert history.latest() is None
    assert history.trajectory() == []


def test_trajectory_deltas_and_regression_verdicts(tmp_path):
    history = PerfHistory(tmp_path / "hist.jsonl")
    history.append(entry(100.0))
    history.append(entry(90.0))   # -10%: within the 25% gate
    history.append(entry(30.0))   # -67%: regression
    rows = history.trajectory(max_regress=0.25)
    assert [r["verdict"] for r in rows] == ["-", "ok", "REGRESSION"]
    assert rows[1]["delta"] == pytest.approx(-0.10)
    assert rows[2]["delta"] == pytest.approx(-2 / 3)
    assert rows[0]["git_commit"] == "abc123"
    table = format_trajectory(rows)
    assert "REGRESSION" in table and "jobs/s" in table


def test_git_commit_resolves_in_this_repo(tmp_path):
    commit = git_commit()
    assert len(commit) == 40 and commit != "unknown"
    assert git_commit(cwd=tmp_path) == "unknown"


def test_op_buckets_are_sorted():
    assert list(OP_BUCKETS) == sorted(OP_BUCKETS)


def test_merge_snapshot_tolerates_dead_worker_payloads():
    """Regression: a worker that died before its first phase ships
    None, a non-dict, or a snapshot whose 'profile' is None/empty —
    merging any of those must be a silent no-op, never a raise."""
    dst = PhaseProfiler(enabled=True)
    dst.add("schedule", 1.0, calls=2)
    for snap in (None, "garbage", 7, {}, {"profile": None},
                 {"profile": {}}):
        dst.merge_snapshot(snap)
    assert dst.phases["schedule"] == [1.0, 2]
    assert dst.kernels == 0
