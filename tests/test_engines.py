"""The simulator engine registry and the ``engine=`` API surface.

Covers the registry contract (lookup, listing, registration,
resolution precedence), bit-exact parity between the fast and
reference engines, the auto engine's per-run selection, clean fallback
for uncovered kernels (with the ``sim_engine_fallback_total`` metric),
engine-blind job identity, and divergence bisection against a
deliberately broken engine.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.frontend import GraphProcessor
from repro.graph import dataset
from repro.sim import GPUConfig
from repro.sim.engines import (DEFAULT_ENGINE, ENGINE_ENV,
                               SimulatorEngine, available_engines,
                               build_gpu, get_engine, register_engine,
                               resolve_engine_name)
from repro.sim.fast import FastGPU
from repro.sim.gpu import GPU


# ----------------------------------------------------------------- registry

def test_builtin_engines_registered():
    names = available_engines()
    assert "reference" in names
    assert "fast" in names
    assert "auto" in names
    assert names == sorted(names)


def test_get_engine_builds_expected_gpu_types():
    cfg = GPUConfig.vortex_bench()
    ref = get_engine("reference").build_gpu(cfg)
    fast = get_engine("fast").build_gpu(cfg)
    assert type(ref) is GPU
    assert isinstance(fast, FastGPU)
    assert isinstance(get_engine("reference"), SimulatorEngine)


def test_get_engine_unknown_name_errors():
    with pytest.raises(ConfigError, match="unknown simulator engine"):
        get_engine("warp9")


def test_register_engine_validates_shape():
    class NoBuild:
        name = "nobuild"

    with pytest.raises(ConfigError):
        register_engine(NoBuild())

    class NoName:
        def build_gpu(self, config, schedule=None):
            return GPU(config)

    with pytest.raises(ConfigError):
        register_engine(NoName())


def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert resolve_engine_name(None) == DEFAULT_ENGINE
    monkeypatch.setenv(ENGINE_ENV, "fast")
    assert resolve_engine_name(None) == "fast"
    # An explicit argument beats the environment.
    assert resolve_engine_name("reference") == "reference"


def test_build_gpu_routes_through_registry():
    cfg = GPUConfig.vortex_bench()
    assert type(build_gpu(cfg)) is GPU
    assert isinstance(build_gpu(cfg, engine="fast"), FastGPU)


def test_auto_engine_selects_by_schedule():
    from repro.sched.registry import make_schedule

    cfg = GPUConfig.vortex_bench()
    auto = get_engine("auto")
    assert isinstance(
        auto.build_gpu(cfg, schedule=make_schedule("vertex_map")),
        FastGPU)
    weaver_gpu = auto.build_gpu(
        cfg, schedule=make_schedule("sparseweaver"))
    assert type(weaver_gpu) is GPU


def test_facade_reexports():
    import repro

    assert repro.get_engine is get_engine
    assert repro.SimulatorEngine is SimulatorEngine


# ------------------------------------------------------------------- parity

_PARITY_SCHEDULES = ("vertex_map", "edge_map", "warp_map", "cta_map",
                     "sparseweaver")


@pytest.mark.parametrize("algorithm,schedule", [
    pytest.param(algorithm, schedule,
                 id=schedule if algorithm == "pagerank"
                 else f"{schedule}-{algorithm}")
    for algorithm in ("pagerank", "bfs", "sssp", "cc")
    for schedule in _PARITY_SCHEDULES])
def test_fast_engine_bit_identical(algorithm, schedule):
    """Cycles, stall cells, summary dicts, values, digest ledgers and
    execution traces match the reference engine exactly — the tentpole
    guarantee.

    PageRank gathers replay stored records, with a tracer attached
    too; BFS/SSSP/CC gathers read state they mutate and run live
    (``no_hint``), as does every ``sparseweaver`` gather (``unit``)."""
    from repro.algorithms import make_algorithm
    from repro.obs.metrics import (disable_metrics, enable_metrics,
                                   metrics_enabled)
    from repro.obs.provenance import (digests_enabled, disable_digests,
                                      enable_digests)
    from repro.sim.trace import ExecutionTracer

    graph = dataset("bio-human", scale=0.1)
    results = {}
    ledgers = {}
    tracers = {}
    assert not digests_enabled()
    metrics_were_on = metrics_enabled()
    registry = enable_metrics()
    registry.clear()
    try:
        for engine in ("reference", "fast"):
            digester = enable_digests()
            digester.begin_job()
            tracers[engine] = ExecutionTracer(max_events=1_000_000)
            proc = GraphProcessor(
                make_algorithm(algorithm), schedule=schedule,
                config=GPUConfig.vortex_bench(), engine=engine,
                exec_tracer=tracers[engine])
            results[engine] = proc.run(graph, max_iterations=2)
            ledgers[engine] = digester.take_ledger()
        fallbacks = registry.counter("sim_engine_fallback_total")
        assert fallbacks.value(reason="tracer") == 0
        if algorithm == "pagerank" and schedule != "sparseweaver":
            # Every fast launch replayed: none fell back at all.
            assert fallbacks.value(reason="no_hint") == 0
            assert fallbacks.value(reason="unit") == 0
    finally:
        disable_digests(clear=True)
        registry.clear()
        if not metrics_were_on:
            disable_metrics()
    ref, fast = results["reference"], results["fast"]
    assert fast.total_cycles == ref.total_cycles
    assert fast.iterations == ref.iterations
    assert fast.stats.to_summary_dict() == ref.stats.to_summary_dict()
    assert dict(fast.stats.stall_cells) == dict(ref.stats.stall_cells)
    assert (fast.values == ref.values).all()
    assert ledgers["reference"]
    assert ledgers["fast"] == ledgers["reference"]
    assert tracers["reference"].events
    assert tracers["reference"].dropped == 0
    assert tracers["fast"].events == tracers["reference"].events
    assert tracers["fast"].stalls == tracers["reference"].stalls


# ----------------------------------------------------------------- fallback

def test_fast_unsupported_kernel_falls_back_cleanly():
    """A hardware-unit schedule under engine=fast falls back to the
    reference loop per kernel, increments the fallback metric, and
    still produces reference-identical results."""
    from repro.obs.metrics import (disable_metrics, enable_metrics,
                                   metrics_enabled)
    from repro.runtime import AlgorithmSpec

    graph = dataset("bio-human", scale=0.1)
    was_enabled = metrics_enabled()
    registry = enable_metrics()
    registry.clear()
    try:
        proc = GraphProcessor(
            AlgorithmSpec.of("pagerank", iterations=2).build(),
            schedule="sparseweaver", config=GPUConfig.vortex_bench(),
            engine="fast")
        fast = proc.run(graph, max_iterations=2)
        counter = registry.counter("sim_engine_fallback_total")
        assert counter.value(reason="unit") > 0
    finally:
        registry.clear()
        if not was_enabled:
            disable_metrics()

    ref = GraphProcessor(
        AlgorithmSpec.of("pagerank", iterations=2).build(),
        schedule="sparseweaver", config=GPUConfig.vortex_bench(),
        engine="reference").run(graph, max_iterations=2)
    assert fast.total_cycles == ref.total_cycles
    assert fast.stats.to_summary_dict() == ref.stats.to_summary_dict()


# ----------------------------------------------------------- job identity

def test_engine_excluded_from_spec_identity():
    """Engine-stamped specs keep the engine-less content hash, dict
    form and equality — same cycles means same cache address."""
    import dataclasses

    from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

    spec = JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.from_dataset("bio-human", scale=0.1),
        schedule="vertex_map")
    stamped = dataclasses.replace(spec, engine="fast")
    assert stamped.engine == "fast"
    assert stamped == spec
    assert stamped.content_hash() == spec.content_hash()
    assert "engine" not in stamped.to_dict()
    # from_dict honors a stray engine key without round-tripping it.
    carried = JobSpec.from_dict({**spec.to_dict(), "engine": "fast"})
    assert carried.engine == "fast"
    assert carried.content_hash() == spec.content_hash()


# ------------------------------------------------------- divergence bisect

class _BrokenGPU(GPU):
    """Reference loop whose record compiler silently adds one cycle of
    fixed latency to every instruction from its third kernel launch
    onward — kernels 0 and 1 stay bit-identical, kernel 2 diverges from
    its first record."""

    def __init__(self, config):
        super().__init__(config)
        self._launches = 0
        self._broken_now = False

    def run_kernel(self, *args, **kwargs):
        self._broken_now = self._launches >= 2
        self._launches += 1
        return super().run_kernel(*args, **kwargs)

    def _instr_compiler(self, tally, has_unit):
        compile_instr = super()._instr_compiler(tally, has_unit)
        if not self._broken_now:
            return compile_instr

        def broken(instr):
            rec = compile_instr(instr)
            return rec[:2] + (rec[2] + 1,) + rec[3:]

        return broken


class _BrokenEngine:
    name = "broken-for-test"

    def build_gpu(self, config, schedule=None):
        return _BrokenGPU(config)


def test_diff_bisects_broken_engine_to_first_bad_kernel(capsys):
    """``repro diff --a engine=reference --b engine=<broken>`` names
    the first diverging (kernel, interval, core, warp) coordinate —
    and it is the kernel the broken engine actually perturbs."""
    from repro.cli import main
    from repro.obs.provenance import digests_enabled, disable_digests
    from repro.sim import engines as engines_mod

    register_engine(_BrokenEngine())
    live = ("algorithm=pagerank,dataset=bio-human,schedule=vertex_map,"
            "scale=0.2,iterations=2")
    assert not digests_enabled()
    try:
        code = main(["diff", "--a", f"engine=reference,{live}",
                     "--b", f"engine=broken-for-test,{live}",
                     "--interval", "256", "--json"])
        out = capsys.readouterr().out
    finally:
        disable_digests(clear=True)
        engines_mod._ENGINES.pop("broken-for-test", None)
    assert code == 1
    doc = json.loads(out)
    assert doc["divergent"] == 1
    first = doc["jobs"][0]["first"]
    # Kernels 0 (init) and 1 (first gather) replay clean; the first
    # divergence is the perturbed third launch.
    assert first["coord"][0] == 2
    assert first["where"].startswith("kernel 2")


def test_diff_between_real_engines_is_clean(capsys):
    """The ledger-level acceptance check: reference vs fast diffs to
    zero divergences with digests enabled."""
    from repro.cli import main
    from repro.obs.provenance import digests_enabled, disable_digests

    live = ("algorithm=pagerank,dataset=bio-human,schedule=warp_map,"
            "scale=0.2,iterations=2")
    assert not digests_enabled()
    try:
        code = main(["diff", "--a", f"engine=reference,{live}",
                     "--b", f"engine=fast,{live}",
                     "--interval", "256", "--json"])
        out = capsys.readouterr().out
    finally:
        disable_digests(clear=True)
    assert code == 0
    doc = json.loads(out)
    assert doc["divergent"] == 0 and doc["compared"] == 1
