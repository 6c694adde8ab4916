"""The simulator's one observer event path: zero cost when off."""

import pytest

from repro.algorithms import make_algorithm
from repro.frontend import GraphProcessor
from repro.graph import powerlaw_graph
from repro.obs.metrics import metrics_enabled
from repro.obs.observer import NONE, SimObserver, launch_observers
from repro.obs.profile import profiling_enabled
from repro.obs.provenance import digests_enabled
from repro.sim import GPUConfig


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _forbidden(*_args, **_kwargs):
    raise AssertionError("observation is off, yet it was used")


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("schedule", ["vertex_map", "sparseweaver"])
def test_off_calls_no_observer_and_reads_no_clock(monkeypatch, schedule,
                                                  engine):
    import repro.obs.profile
    import repro.sim.cache
    import repro.sim.fast
    import repro.sim.gpu
    import repro.sim.memory
    import repro.sim.trace

    assert not (metrics_enabled() or profiling_enabled()
                or digests_enabled())
    assert launch_observers() is NONE
    # The simulator modules hold no clock at all; the profiler's is
    # made to raise on any read.
    for module in (repro.sim.gpu, repro.sim.memory, repro.sim.cache,
                   repro.sim.fast, repro.sim.trace):
        assert not hasattr(module, "perf_counter")
    monkeypatch.setattr(repro.obs.profile, "perf_counter", _forbidden)
    for cls in _subclasses(SimObserver):
        for name in ("begin_kernel", "issue", "stall", "mem",
                     "end_kernel"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, _forbidden)
    proc = GraphProcessor(make_algorithm("pagerank", iterations=2),
                          schedule=schedule,
                          config=GPUConfig.vortex_tiny(), engine=engine)
    result = proc.run(powerlaw_graph(80, 320, seed=3), max_iterations=2)
    assert result.total_cycles > 0
