"""Offline report aggregation: file classification + mixed folds."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.report import aggregate, classify_file, format_report


def telemetry_lines():
    return [
        {"kind": "submitted", "job": "h-a", "label": "a"},
        {"kind": "started", "job": "h-a", "label": "a"},
        {"kind": "finished", "job": "h-a", "label": "a", "cycles": 500},
        {"kind": "started", "job": "h-b", "label": "b"},
        {"kind": "failed", "job": "h-b", "label": "b", "error": "boom"},
        {"kind": "batch_summary", "jobs": 2},
    ]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


# ----------------------------------------------------------------------
# classify_file
# ----------------------------------------------------------------------
def test_classify_empty_file_is_empty_telemetry(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert classify_file(path) == ("telemetry", [])
    path.write_text("  \n\n  ")
    assert classify_file(path) == ("telemetry", [])


def test_classify_telemetry_and_metrics_and_profile(tmp_path):
    tele = write_jsonl(tmp_path / "t.jsonl", telemetry_lines())
    kind, records = classify_file(tele)
    assert kind == "telemetry" and len(records) == 6

    registry = MetricsRegistry(enabled=True)
    registry.counter("sim_cycles_total").inc(1500)
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps(registry.snapshot()))
    kind, doc = classify_file(metrics)
    assert kind == "metrics" and "metrics" in doc

    profiler = PhaseProfiler(enabled=True)
    profiler.add("execute", 0.5)
    kind, doc = classify_file(profiler.save(tmp_path / "p.json"))
    assert kind == "profile" and "profile" in doc


def test_classify_truncated_json_object_rejected(tmp_path):
    path = tmp_path / "torn.json"
    path.write_text('{"metrics": {"sim_cycles_total"')
    with pytest.raises(ReproError, match="neither a metrics snapshot"):
        classify_file(path)


def test_classify_unknown_schema_object_rejected(tmp_path):
    # A one-line JSON *object* without a metrics/profile key is read
    # as single-record telemetry; a multi-line one with garbage fails.
    path = tmp_path / "unknown.json"
    path.write_text('{"weights": [1, 2, 3]}')
    kind, records = classify_file(path)
    assert kind == "telemetry" and records == [{"weights": [1, 2, 3]}]

    path.write_text('{"weights": 1}\n[not, valid\n')
    with pytest.raises(ReproError, match="neither"):
        classify_file(path)


def test_classify_non_object_telemetry_line_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('{"kind": "job"}\n[1, 2, 3]\n')
    with pytest.raises(ReproError, match="must be objects"):
        classify_file(path)


def test_classify_unreadable_path_rejected(tmp_path):
    with pytest.raises(ReproError, match="cannot read"):
        classify_file(tmp_path / "missing.jsonl")


# ----------------------------------------------------------------------
# aggregate over a mixed directory
# ----------------------------------------------------------------------
def test_aggregate_mixed_directory(tmp_path):
    tele = write_jsonl(tmp_path / "events.jsonl", telemetry_lines())
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")

    registry = MetricsRegistry(enabled=True)
    registry.counter("sim_cycles_total").inc(1500)
    registry.histogram("engine_job_wall_seconds",
                       buckets=(0.1, 1.0)).observe(0.05)
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(registry.snapshot()))

    profiler = PhaseProfiler(enabled=True)
    profiler.add("execute", 0.6)
    profiler.add("mem/l1", 0.2)
    profiler.add_kernel(cycles=2000, wall_seconds=1.0)
    profile = profiler.save(tmp_path / "profile.json")

    report = aggregate([tele, empty, metrics, profile])
    assert report["jobs_total"] == 2
    assert report["done"] == 1 and report["failed"] == 1
    assert report["simulated_cycles"] == 500
    assert report["failures"] == [{"label": "b", "error": "boom"}]
    assert report["metrics"]["sim_cycles_total"]["series"][0]["value"] \
        == 1500
    host = report["host_profile"]
    assert host["kernels"] == 1
    assert host["phases"][0]["phase"] == "execute"
    kinds = {entry["path"]: entry["kind"] for entry in report["files"]}
    assert kinds == {str(tele): "telemetry", str(empty): "telemetry",
                     str(metrics): "metrics", str(profile): "profile"}

    text = format_report(report)
    assert "profile :" in text
    assert "execute" in text and "mem/l1" in text
    assert "FAILED  : b: boom" in text
    assert "p50<=" in text  # histogram percentile line


def test_aggregate_two_profiles_merge(tmp_path):
    for i, sec in enumerate((0.25, 0.75)):
        p = PhaseProfiler(enabled=True)
        p.add("execute", sec)
        p.add_kernel(cycles=100, wall_seconds=sec)
        p.save(tmp_path / f"p{i}.json")
    report = aggregate(sorted(tmp_path.glob("p*.json")))
    host = report["host_profile"]
    assert host["kernels"] == 2
    assert host["sim_wall_seconds"] == pytest.approx(1.0)
    assert host["coverage"] == pytest.approx(1.0)


def test_aggregate_profile_summary_from_telemetry_stream(tmp_path):
    records = telemetry_lines()
    records.insert(-1, {
        "kind": "profile_summary", "kernels": 3,
        "sim_wall_seconds": 0.5, "cycles_per_wall_second": 4000.0,
        "coverage": 0.97,
        "top_phases": [["execute", 0.3, 42]], "seq": 10,
    })
    tele = write_jsonl(tmp_path / "events.jsonl", records)
    report = aggregate([tele])
    host = report["host_profile"]
    assert host["kernels"] == 3 and host["coverage"] == 0.97
    text = format_report(report)
    assert "3 kernel(s)" in text and "execute" in text
