"""Execution provenance: digest ledgers and divergence localization.

Three layers of coverage: the :class:`StateDigester` unit mechanics
(FNV folding, interval rollover, sort order), the diff helpers that
turn two ledgers into a first-divergence coordinate, and the
end-to-end guarantee the whole subsystem exists for — ``REPRO_DIGEST``
unset leaves cycle counts and summary dicts bit-identical, set makes a
deliberately perturbed run localizable to the exact
``(kernel, interval, core, warp)`` where it stopped matching.
"""

import json
import os

import pytest

from repro.graph import powerlaw_graph
from repro.obs.provenance import (DEFAULT_INTERVAL, DIGEST_ENV,
                                  INTERVAL_ENV, KernelWindowTracer,
                                  StateDigester, context_window,
                                  describe_coord, diff_ledgers,
                                  digest_hex, digests_enabled,
                                  disable_digests, enable_digests,
                                  first_divergence, fold,
                                  get_digester, ledger_index,
                                  ledgers_from_cache_dir,
                                  ledgers_from_journal,
                                  resolve_interval, sort_key)
from repro.runtime import (AlgorithmSpec, GraphSpec, JobSpec,
                           RunJournal)
from repro.runtime.cache import RunSummary
from repro.runtime.engine import _execute_spec
from repro.sim import GPUConfig


@pytest.fixture(autouse=True)
def _clean_digester():
    """Every test starts and ends with the global digester off."""
    disable_digests(clear=True)
    os.environ.pop(INTERVAL_ENV, None)
    yield
    disable_digests(clear=True)
    os.environ.pop(INTERVAL_ENV, None)


def tiny_spec(**config_overrides) -> JobSpec:
    import dataclasses

    config = GPUConfig.vortex_tiny()
    if config_overrides:
        config = dataclasses.replace(config, **config_overrides)
    return JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.inline(powerlaw_graph(100, 400, seed=1),
                               name="pl"),
        schedule="sparseweaver",
        config=config,
        max_iterations=1,
    )


# ------------------------------------------------------------ folding
def test_fold_is_portable_fnv1a():
    # Known-answer: folding one zero byte from the offset basis is the
    # classic FNV-1a single-step; the value must never depend on the
    # interpreter's hash() (ledgers compare across processes).
    assert fold(0xCBF29CE484222325, 0) == 0xAF63BD4C8601B7DF
    assert digest_hex(fold(0xCBF29CE484222325, 0)) == "af63bd4c8601b7df"
    # 64-bit wraparound stays in range.
    h = 0xCBF29CE484222325
    for v in (1, 2 ** 63, -1, 10 ** 30):
        h = fold(h, v)
        assert 0 <= h < (1 << 64)


def test_same_event_stream_same_digest():
    a, b = StateDigester(enabled=True), StateDigester(enabled=True)
    for d in (a, b):
        d.begin_job()
        d.begin_kernel()
        d.issue(5, 0, 0, 7, 1, 3)
        d.stall(9, 0, 0, 2, 4)
        d.mem(6, 0, 2, 40)
    la, lb = a.take_ledger(), b.take_ledger()
    assert la == lb
    # One changed event value changes the digest.
    c = StateDigester(enabled=True)
    c.begin_job()
    c.begin_kernel()
    c.issue(5, 0, 0, 7, 1, 4)  # done differs
    c.stall(9, 0, 0, 2, 4)
    c.mem(6, 0, 2, 40)
    assert c.take_ledger() != la


def test_interval_rollover_closes_cells():
    d = StateDigester(enabled=True, interval_cycles=10)
    d.begin_job()
    d.begin_kernel()
    d.issue(3, 0, 1, 7, 0, 0)    # interval 0
    d.issue(7, 0, 1, 7, 0, 0)    # still interval 0
    d.issue(25, 0, 1, 7, 0, 0)   # interval 2 -> closes interval 0
    ledger = d.take_ledger()
    warp_records = [r for r in ledger if r[3] == 1]
    assert [(r[1], r[5]) for r in warp_records] == [(0, 2), (2, 1)]
    assert all(r[0] == 0 and r[2] == 0 for r in warp_records)
    # Digests are canonical 16-hex-digit strings.
    assert all(len(r[4]) == 16 for r in ledger)


def test_take_ledger_resets_and_returns_none_when_empty():
    d = StateDigester(enabled=True, interval_cycles=10)
    d.begin_job()
    assert d.take_ledger() is None
    d.begin_kernel()
    d.issue(1, 0, 0, 7, 0, 0)
    assert d.take_ledger() is not None
    assert d.take_ledger() is None  # drained


def test_resolve_interval_env_and_garbage(monkeypatch):
    assert resolve_interval(64) == 64
    assert resolve_interval(0) == 1  # clamped
    monkeypatch.setenv(INTERVAL_ENV, "4096")
    assert resolve_interval() == 4096
    monkeypatch.setenv(INTERVAL_ENV, "not-a-number")
    assert resolve_interval() == DEFAULT_INTERVAL


def test_enable_disable_roundtrip_exports_env():
    assert not digests_enabled()
    digester = enable_digests(interval_cycles=512)
    assert digester is get_digester()
    assert digests_enabled()
    assert os.environ[DIGEST_ENV] == "1"
    assert os.environ[INTERVAL_ENV] == "512"
    assert digester.interval_cycles == 512
    disable_digests()
    assert not digests_enabled()
    assert DIGEST_ENV not in os.environ



def test_enable_without_interval_resolves_afresh():
    """A bare ``enable_digests()`` takes the environment or default
    interval, never one an earlier call left behind."""
    enable_digests(interval_cycles=512)
    disable_digests()
    os.environ.pop(INTERVAL_ENV, None)
    assert enable_digests().interval_cycles == DEFAULT_INTERVAL
    disable_digests()
    os.environ[INTERVAL_ENV] = "2048"
    assert enable_digests().interval_cycles == 2048

# ---------------------------------------------------------- diffing
def test_sort_key_orders_summaries_after_streams():
    coords = [(-1, -1, -1, -1), (0, -1, -1, -1), (0, 0, 0, -1),
              (0, 0, 0, 0), (0, 1, 0, 0), (1, -1, -1, -1)]
    ordered = sorted(coords, key=sort_key)
    # Interval streams of kernel 0 come first (the memory stream after
    # the warps it aggregates), then kernel 0's summary, then kernel 1,
    # then the job-wide merge stream last.
    assert ordered == [(0, 0, 0, 0), (0, 0, 0, -1), (0, 1, 0, 0),
                       (0, -1, -1, -1), (1, -1, -1, -1),
                       (-1, -1, -1, -1)]


def test_diff_first_divergence_and_context():
    base = [
        [0, 0, 0, 0, "aaaa", 3],
        [0, 1, 0, 0, "bbbb", 2],
        [0, -1, -1, -1, "cccc", 5],
    ]
    other = [
        [0, 0, 0, 0, "aaaa", 3],
        [0, 1, 0, 0, "XXXX", 2],   # diverges here
        [0, -1, -1, -1, "YYYY", 5],
    ]
    assert diff_ledgers(base, base) == []
    assert first_divergence(base, base) is None
    diffs = diff_ledgers(base, other)
    assert [d["coord"] for d in diffs] == [(0, 1, 0, 0),
                                           (0, -1, -1, -1)]
    first = first_divergence(base, other)
    assert first["coord"] == (0, 1, 0, 0)
    assert first["a"] == "bbbb" and first["b"] == "XXXX"
    rows = context_window(base, other, first["coord"], context=1)
    assert [r["match"] for r in rows] == [True, False, False]
    # Records on only one side surface as None digests.
    diffs = diff_ledgers(base, base[:-1])
    assert diffs[-1]["coord"] == (0, -1, -1, -1)
    assert diffs[-1]["b"] is None


def test_ledger_index_tolerates_json_floats_and_none():
    assert ledger_index(None) == {}
    idx = ledger_index([[0.0, 1.0, 2.0, 3.0, "dead", 7.0]])
    assert idx == {(0, 1, 2, 3): ("dead", 7)}


def test_describe_coord_names_every_shape():
    assert describe_coord((-1, -1, -1, -1)) == "stats-merge stream"
    assert describe_coord((2, -1, -1, -1)) == "kernel 2 summary"
    assert describe_coord((1, 3, 0, -1)) == (
        "kernel 1 interval 3 core 0 memory stream")
    assert describe_coord((1, 3, 0, 5)) == (
        "kernel 1 interval 3 core 0 warp 5")


# ------------------------------------------------- summary transport
def test_run_summary_omits_absent_ledger():
    from repro.sim.stats import KernelStats

    summary = RunSummary(total_cycles=10, iterations=1,
                         stats=KernelStats(), values_digest="d")
    assert "digest_ledger" not in summary.to_dict()
    assert RunSummary.from_dict(summary.to_dict()).digest_ledger is None

    ledger = [[0, 0, 0, 0, "abcd", 2]]
    summary.digest_ledger = ledger
    data = summary.to_dict()
    assert data["digest_ledger"] == ledger
    # JSON round trip (journal/cache/fleet wire format).
    restored = RunSummary.from_dict(json.loads(json.dumps(data)))
    assert restored.digest_ledger == ledger


def test_ledger_rides_the_run_journal(tmp_path):
    spec = tiny_spec()
    enable_digests(256)
    try:
        data = _execute_spec(spec)
    finally:
        disable_digests(clear=True)
    assert data["digest_ledger"]
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record(spec, RunSummary.from_dict(data))

    again = RunJournal(tmp_path / "run.jsonl")
    again.load()
    restored = again.summary_for(spec)
    assert restored.digest_ledger == data["digest_ledger"]
    # The diff-side loader finds the same ledger, keyed by label.
    runs = ledgers_from_journal(tmp_path / "run.jsonl")
    assert runs[spec.label]["digest_ledger"] == data["digest_ledger"]


def test_ledgers_from_journal_tolerates_garbage(tmp_path):
    path = tmp_path / "run.jsonl"
    good = {"hash": "ab", "label": "job-a",
            "summary": {"total_cycles": 1,
                        "digest_ledger": [[0, 0, 0, 0, "aa", 1]]}}
    with path.open("w") as handle:
        handle.write(json.dumps(good) + "\n")
        handle.write("not json at all\n")
        handle.write("[1, 2, 3]\n")                       # not an object
        handle.write('{"type": "lease", "hash": "ab"}\n')  # bookkeeping
        handle.write('{"type": "complete", "summary": 7}\n')
        handle.write('{"hash": "cd", "summary": {"total_cycles"')  # torn
    runs = ledgers_from_journal(path)
    assert set(runs) == {"job-a"}
    assert runs["job-a"]["digest_ledger"] == [[0, 0, 0, 0, "aa", 1]]


def test_ledgers_from_cache_dir(tmp_path):
    (tmp_path / "aa.json").write_text(json.dumps(
        {"label": "job-a", "summary": {"total_cycles": 1}}))
    (tmp_path / "bb.json").write_text("{torn")
    (tmp_path / "cc.json").write_text(json.dumps({"summary": [1]}))
    runs = ledgers_from_cache_dir(tmp_path)
    assert set(runs) == {"job-a"}


# --------------------------------------------------- end-to-end
def test_digests_off_is_bit_identical():
    """REPRO_DIGEST unset: cycles and summary dicts are unchanged by
    the instrumented build; set: same cycles, ledger present and
    deterministic across runs."""
    spec = tiny_spec()
    off_a = _execute_spec(spec)
    off_b = _execute_spec(spec)
    assert off_a == off_b
    assert "digest_ledger" not in off_a

    enable_digests(256)
    try:
        on_a = _execute_spec(spec)
        on_b = _execute_spec(spec)
    finally:
        disable_digests(clear=True)
    # Observation never perturbs simulation.
    assert on_a["total_cycles"] == off_a["total_cycles"]
    assert on_a["stats"] == off_a["stats"]
    ledger = on_a.pop("digest_ledger")
    assert ledger == on_b.pop("digest_ledger")  # deterministic
    assert on_a == off_a  # everything else byte-identical
    # The ledger carries warp streams, kernel summaries and the
    # job-wide merge stream.
    kinds = {tuple(1 if v >= 0 else 0 for v in r[:4]) for r in ledger}
    assert (1, 1, 1, 1) in kinds   # warp stream
    assert (1, 0, 0, 0) in kinds   # kernel summary
    assert (0, 0, 0, 0) in kinds   # merge stream


def test_perturbed_run_localizes_to_warp_interval():
    """The acceptance scenario: patch an opcode latency, and the first
    diverging coordinate is a finest-grained warp record — the exact
    (kernel, interval, core, warp) where execution stopped matching."""
    enable_digests(256)
    try:
        base = _execute_spec(tiny_spec())
        perturbed = _execute_spec(tiny_spec(alu_latency=3))
    finally:
        disable_digests(clear=True)
    assert base["total_cycles"] != perturbed["total_cycles"]
    first = first_divergence(base["digest_ledger"],
                             perturbed["digest_ledger"])
    assert first is not None
    kernel, interval, core, warp = first["coord"]
    # A warp stream record, never a summary: all coordinates concrete.
    assert kernel >= 0 and interval >= 0 and core >= 0 and warp >= 0
    # The very first interval of the very first kernel diverges — an
    # ALU latency change perturbs execution from the start.
    assert kernel == 0 and interval == 0


# ------------------------------------------------- replay windowing
def test_kernel_window_tracer_gates_on_target():
    window = KernelWindowTracer(target=1, max_events=100)
    assert not window.active
    window.begin_kernel()        # kernel 0
    window.issue(1, 0, 0, 7, 0, 0)
    window.stall(2, 0, 0, 1, 3)
    assert not window.inner.events and not window.inner.stalls
    window.begin_kernel()        # kernel 1: capture window opens
    assert window.active
    window.issue(5, 0, 0, 7, 0, 0)
    window.stall(6, 0, 0, 1, 3)
    assert len(window.inner.events) == 1
    assert len(window.inner.stalls) == 1
    window.begin_kernel()        # kernel 2: window closed again
    assert not window.active
    window.issue(9, 0, 0, 7, 0, 0)
    assert len(window.inner.events) == 1
