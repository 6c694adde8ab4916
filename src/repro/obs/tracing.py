"""Span tracing with Chrome ``trace_event`` export.

A :class:`Tracer` collects wall-clock :class:`Span`s — kernel phases
in the :class:`~repro.frontend.framework.GraphProcessor`, per-job
lifecycle in the batch engine — and serializes them as Chrome
trace-event JSON, loadable in ``chrome://tracing`` or Perfetto.

Two clocks coexist in one trace file:

* **wall spans** (``ph: "X"`` complete events) use microseconds since
  the tracer was created;
* **simulated-cycle events** converted from an
  :class:`~repro.sim.trace.ExecutionTracer` by
  :func:`execution_trace_events` use one timestamp unit per simulated
  cycle, one Perfetto *process* per core and one *thread* row per warp
  (instruction spans) or stall class (stall spans).

Timestamps within each track are monotonic, which is all the viewers
require.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional


@dataclass
class Span:
    """One completed (or in-flight) wall-clock span."""

    name: str
    cat: str
    ts_us: float
    dur_us: float = 0.0
    tid: str = "main"
    args: Dict[str, Any] = field(default_factory=dict)

    def to_event(self, pid: int, tid: int) -> Dict[str, Any]:
        """Chrome ``trace_event`` complete-event form."""
        return {
            "ph": "X",
            "name": self.name,
            "cat": self.cat,
            "ts": round(self.ts_us, 3),
            "dur": round(max(self.dur_us, 0.001), 3),
            "pid": pid,
            "tid": tid,
            "args": self.args,
        }


class _NullSpan:
    """Span stand-in for a disabled tracer (args go nowhere useful)."""

    __slots__ = ("args",)

    def __init__(self) -> None:
        self.args: Dict[str, Any] = {}


class Tracer:
    """Collects spans and instants; exports Chrome trace JSON."""

    def __init__(self, enabled: bool = True, pid: Optional[int] = None) -> None:
        self.enabled = enabled
        self.pid = os.getpid() if pid is None else pid
        self.spans: List[Span] = []
        self.instants: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> float:
        """``perf_counter`` origin of this tracer's wall clock.

        External event producers (the host :class:`~repro.obs.profile.
        StackSampler`) anchor their timestamps here so their spans line
        up with this tracer's in one Perfetto view.
        """
        return self._t0

    def now_us(self) -> float:
        """Microseconds since this tracer was created."""
        return (time.perf_counter() - self._t0) * 1e6

    @contextmanager
    def span(self, name: str, cat: str = "phase", tid: str = "main",
             **args):
        """Context manager timing one span.

        Yields the :class:`Span` so the body can attach result args::

            with tracer.span("gather", iteration=3) as sp:
                stats = run(...)
                sp.args["cycles"] = stats.total_cycles
        """
        if not self.enabled:
            yield _NullSpan()
            return
        span = Span(name=name, cat=cat, ts_us=self.now_us(), tid=tid,
                    args=dict(args))
        try:
            yield span
        finally:
            span.dur_us = self.now_us() - span.ts_us
            self.spans.append(span)

    def add_span(self, name: str, cat: str, ts_us: float, dur_us: float,
                 tid: str = "main", **args) -> None:
        """Record a span whose endpoints were measured elsewhere."""
        if not self.enabled:
            return
        self.spans.append(Span(name, cat, ts_us, dur_us, tid, dict(args)))

    def instant(self, name: str, cat: str = "mark", tid: str = "main",
                **args) -> None:
        """Record a zero-duration marker."""
        if not self.enabled:
            return
        self.instants.append({
            "ph": "i", "name": name, "cat": cat, "s": "t",
            "ts": round(self.now_us(), 3), "tid": tid,
            "args": dict(args),
        })

    # ------------------------------------------------------------------
    def chrome_trace(self, extra_events: Iterable[Dict[str, Any]] = ()
                     ) -> Dict[str, Any]:
        """The full trace document (``{"traceEvents": [...]}``).

        ``extra_events`` lets callers splice in pre-built events, e.g.
        :func:`execution_trace_events` output.
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = [{
            "ph": "M", "name": "process_name", "pid": self.pid, "tid": 0,
            "args": {"name": "repro"},
        }]

        def tid_of(name: str) -> int:
            if name not in tids:
                tids[name] = len(tids)
                events.append({
                    "ph": "M", "name": "thread_name", "pid": self.pid,
                    "tid": tids[name], "args": {"name": name},
                })
            return tids[name]

        for span in sorted(self.spans, key=lambda s: s.ts_us):
            events.append(span.to_event(self.pid, tid_of(span.tid)))
        for inst in sorted(self.instants, key=lambda e: e["ts"]):
            event = dict(inst)
            event["pid"] = self.pid
            event["tid"] = tid_of(event.pop("tid", "main"))
            events.append(event)
        events.extend(extra_events)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path, extra_events: Iterable[Dict[str, Any]] = ()
             ) -> Path:
        """Write :meth:`chrome_trace` as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(extra_events)) + "\n")
        return path

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)


#: A shared disabled tracer — callers may use it as a default so hot
#: paths never branch on ``tracer is None``.
NULL_TRACER = Tracer(enabled=False)


# ----------------------------------------------------------------------
# Simulated-cycle events from an ExecutionTracer
# ----------------------------------------------------------------------
def execution_trace_events(exec_tracer, pid_base: int = 1000,
                           ts_offset: int = 0,
                           label: str = "sim") -> List[Dict[str, Any]]:
    """Convert an :class:`~repro.sim.trace.ExecutionTracer` to events.

    One Perfetto process per simulated core (``pid_base + core``); one
    thread row per warp carrying instruction spans (name = opcode,
    category = execution phase), plus one row per stall class carrying
    the attributed stall spans recorded by the simulator.  Timestamps
    are simulated cycles (rendered as microseconds by the viewer).

    ``label`` names the process rows (``"<label> core N"``) so two
    tracers rendered into one file — ``repro diff --replay`` puts run A
    and run B side by side under distinct ``pid_base`` ranges — stay
    tellable apart in the viewer.
    """
    events: List[Dict[str, Any]] = []
    cores = sorted({e.core for e in exec_tracer.events}
                   | {s.core for s in exec_tracer.stalls})
    for core in cores:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid_base + core,
            "tid": 0, "args": {"name": f"{label} core {core}"},
        })
    named: set = set()
    for e in exec_tracer.events:
        pid = pid_base + e.core
        if (pid, e.warp) not in named:
            named.add((pid, e.warp))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": e.warp, "args": {"name": f"warp {e.warp}"},
            })
        events.append({
            "ph": "X", "name": e.op.name, "cat": e.phase.name,
            "ts": e.time + ts_offset, "dur": max(e.latency, 1),
            "pid": pid, "tid": e.warp,
            "args": {"warp": e.warp, "core": e.core},
        })
    for s in exec_tracer.stalls:
        pid = pid_base + s.core
        tid = 100 + int(s.cat)
        if (pid, tid) not in named:
            named.add((pid, tid))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "args": {"name": f"stall:{s.cat.name}"},
            })
        events.append({
            "ph": "X", "name": f"stall:{s.cat.name}", "cat": "stall",
            "ts": s.time + ts_offset, "dur": max(s.cycles, 1),
            "pid": pid, "tid": tid,
            "args": {"warp": s.warp, "cycles": s.cycles},
        })
    return events
