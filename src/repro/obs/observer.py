"""One event path from the simulator to everything that watches it.

The execution tracer, the provenance digester, the host profiler and
the metrics registry all subclass :class:`SimObserver`. Once per
launch, :func:`launch_observers` collects the enabled process-global
observers plus the launch's own tracer and binds, per event, only the
methods each observer's class overrides. Each event site in the loop
and the memory walk is one truth test on its tuple, so a launch with
nothing attached calls no observer method and reads no clock.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional


class SimObserver:
    """Base class of simulator observers: every event is a no-op."""

    def begin_kernel(self) -> None:
        """A launch starts, before its warps are built."""

    def issue(self, t: int, core: int, warp: int, op, phase,
              done: int) -> None:
        """A warp issued ``op`` at ``t``; it completes at ``done``."""

    def stall(self, t: int, core: int, warp: int, cat,
              cycles: int) -> None:
        """A warp waited ``cycles`` before issuing (stall class ``cat``)."""

    def mem(self, t: int, core: int, lines: int, latency: int) -> None:
        """A coalesced access walked the caches (unit accesses too)."""

    def end_kernel(self, stats, cache_deltas) -> None:
        """A launch finished with its ``KernelStats``; ``cache_deltas``
        maps each cache level to the launch's ``(hits, misses)``."""


class Bound(NamedTuple):
    """Per event, the bound methods to call, in observer order."""

    begin_kernel: tuple
    issue: tuple
    stall: tuple
    mem: tuple
    end_kernel: tuple


NONE = Bound((), (), (), (), ())

#: Process-global observers, each bound to a launch while ``enabled``.
_GLOBAL: List[SimObserver] = []


def register(observer: SimObserver) -> SimObserver:
    """Add a process-global observer; returns it."""
    _GLOBAL.append(observer)
    return observer


def bind(observers: Iterable[SimObserver]) -> Bound:
    """Bind, per event, the methods each observer's class overrides."""
    observers = list(observers)
    if not observers:
        return NONE
    return Bound(*(
        tuple(getattr(obs, name) for obs in observers
              if getattr(type(obs), name) is not getattr(SimObserver, name))
        for name in Bound._fields))


def launch_observers(tracer: Optional[SimObserver] = None) -> Bound:
    """One launch's bound events: the enabled global observers (metrics
    registry, profiler, digester), then ``tracer``."""
    observers = [obs for obs in _GLOBAL if obs.enabled]
    if tracer is not None:
        observers.append(tracer)
    return bind(observers)
