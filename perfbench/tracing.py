"""Outside-in tracing: spans around calls into each layer's public API.

Nothing under ``src/`` changes.  :func:`install` replaces functions and
methods of the ``repro`` modules with timing wrappers from this file and
:func:`Recorder.uninstall` puts the originals back.  Spans are kept in
memory and written when the run ends, as a Chrome trace and a per-layer
self-time table.  A span's self time is its duration minus the time its
child spans cover.

Calls made once per simulated instruction (warp-generator steps, memory
accesses, Weaver-unit requests) are "micro" spans: they add to the
layer totals and to their parent's child time but are not stored one by
one, which keeps the trace small.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Span store, per-key self times and counters for one process."""

    def __init__(self) -> None:
        #: (id, name, layer, start, end, parent id, job, thread id)
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.job = ""
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._undo: List[tuple] = []
        #: Weaver units built since the last :meth:`take_units`.
        self.units: List[Any] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, record: bool) -> list:
        """Open a span; returns its frame ``[child_s, id, start]``."""
        span_id = None
        if record:
            with self._id_lock:
                span_id = self._next_id
                self._next_id += 1
        frame = [0.0, span_id, perf_counter()]
        self._stack().append(frame)
        return frame

    def leave(self, frame: list, key: str, layer: str) -> float:
        """Close ``frame``; returns the span's duration."""
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame[2]
        self.self_s[key] += dur - frame[0]
        self.calls[key] += 1
        if stack:
            stack[-1][0] += dur
        if frame[1] is not None:
            parent = next((f[1] for f in reversed(stack)
                           if f[1] is not None), None)
            self.spans.append((frame[1], key, layer, frame[2], end, parent,
                               self.job, threading.get_ident()))
        return dur

    def span(self, key: str, layer: str, record: bool = True):
        """Context manager form of :meth:`enter`/:meth:`leave`."""
        return _Span(self, key, layer, record)

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, key: str, layer: str,
             record: bool = True,
             before: Optional[Callable[[tuple], None]] = None,
             after: Optional[Callable[[Any, tuple, dict], None]] = None,
             around: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``before(args)`` runs ahead of the call (outside its span);
        ``after(result, args, kwargs)`` runs once the call returned;
        ``around(result)`` may replace the result (used to wrap the
        warp factories a schedule hands out).
        """
        static = inspect.getattr_static(owner, attr)
        own = inspect.isclass(owner) and attr in owner.__dict__
        if isinstance(static, (classmethod, staticmethod)):
            func = static.__func__
        else:
            func = static
        rec = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = rec.enter(record)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.leave(frame, key, layer)
            if after is not None:
                after(result, args, kwargs)
            if around is not None:
                result = around(result)
            return result

        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__wrapped__ = func
        if isinstance(static, classmethod):
            new = classmethod(wrapper)
        elif isinstance(static, staticmethod):
            new = staticmethod(wrapper)
        else:
            new = wrapper
        self._undo.append((owner, attr, static, own
                           or not inspect.isclass(owner)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, static, own = self._undo.pop()
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def timed_factory(self, factory):
        """Wrap a warp factory so every generator step is timed as
        ``sched.gen`` (the generator protocol, ``send`` included, is
        forwarded unchanged)."""
        if factory is None:
            return None
        rec = self

        def timed(ctx):
            frame = rec.enter(False)
            try:
                gen = factory(ctx)
            finally:
                rec.leave(frame, "sched.gen", "sched")
            return None if gen is None else rec._timed_gen(gen)

        return timed

    def _timed_gen(self, gen):
        response = None
        counts = self.counts
        while True:
            frame = self.enter(False)
            try:
                instr = gen.send(response)
            except StopIteration:
                self.leave(frame, "sched.gen", "sched")
                return
            self.leave(frame, "sched.gen", "sched")
            counts["sched.instructions"] += 1
            response = yield instr

    def take_units(self) -> List[Any]:
        units, self.units = self.units, []
        return units

    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """JSON-able snapshot (spans, self times, calls, counts)."""
        return {"pid": os.getpid(), "spans": self.spans,
                "self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


class _Span:
    __slots__ = ("rec", "key", "layer", "record", "frame")

    def __init__(self, rec, key, layer, record) -> None:
        self.rec, self.key, self.layer, self.record = rec, key, layer, record

    def __enter__(self):
        self.frame = self.rec.enter(self.record)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.leave(self.frame, self.key, self.layer)


# ----------------------------------------------------------------------
def install(rec: Recorder, schedules) -> None:
    """Wrap the public calls of every layer the benchmark drives."""
    from repro.core.unit import WeaverUnit
    from repro.dist.coordinator import Coordinator
    from repro.dist.protocol import MessageStream
    from repro.frontend.framework import GraphProcessor
    from repro.graph import generators
    from repro.runtime.cache import ResultCache, RunSummary
    from repro.runtime.journal import RunJournal
    from repro.runtime.jobspec import JobSpec
    from repro.sched import make_schedule
    from repro.sim.fast import FastGPU
    from repro.sim.gpu import GPU
    from repro.sim.memory import MemoryHierarchy

    counts = rec.counts

    # graph: every generator call, including worker-side rebuilds.
    def count_edges(graph, _args, _kwargs):
        counts["graph.edges"] += graph.num_edges

    for name in ("powerlaw_graph", "road_grid_graph", "rmat_graph",
                 "dense_community_graph"):
        rec.wrap(generators, name, "graph.build", "graph", after=count_edges)

    # frontend: GraphProcessor.run minus its launches and factory calls.
    def count_run(result, _args, _kwargs):
        counts["frontend.iterations"] += result.iterations

    rec.wrap(GraphProcessor, "run", "frontend.run", "frontend",
             after=count_run)

    # sched: factory rebuilds and the warp generators they return.
    for name in schedules:
        cls = type(make_schedule(name))
        rec.wrap(cls, "warp_factory", "sched.factory", "sched",
                 around=rec.timed_factory)
        rec.wrap(cls, "unit_factory", "sched.factory", "sched")

    # sim: the event loop, memory walk and replay coverage.
    def count_kernel(_result, args, kwargs):
        counts["sim.kernels"] += 1
        counts["frontend.launches"] += 1
        replay = kwargs.get("replay")
        if kwargs.get("unit_factory") is not None:
            counts["sim.fallback.unit"] += 1
        elif kwargs.get("tracer") is not None:
            counts["sim.fallback.tracer"] += 1
        elif replay is None:
            counts["sim.fallback.no_hint"] += 1
        else:
            counts["sim.replayed"] += 1

    rec.wrap(FastGPU, "run_kernel", "sim.run_kernel", "sim",
             after=count_kernel)
    rec.wrap(GPU, "run_kernel", "sim.run_kernel", "sim")
    rec.wrap(MemoryHierarchy, "access", "sim.memory", "sim", record=False)

    # core: the Weaver unit's request handler.
    rec.wrap(WeaverUnit, "handle", "core.unit", "core", record=False)
    rec.wrap(WeaverUnit, "__init__", "core.unit_init", "core", record=False,
             after=lambda _r, args, _k: rec.units.append(args[0]))

    # runtime: hashing, cache, journal, summaries, fleet dispatch.
    rec.wrap(JobSpec, "content_hash", "runtime.hash", "runtime",
             record=False)
    rec.wrap(ResultCache, "put", "runtime.cache_put", "runtime")
    rec.wrap(ResultCache, "get", "runtime.cache_get", "runtime")
    for name in ("record", "record_lease", "record_reclaim",
                 "record_skipped"):
        rec.wrap(RunJournal, name, "runtime.journal", "runtime")
    for name in ("from_run_result", "to_dict", "from_dict"):
        rec.wrap(RunSummary, name, "runtime.summary", "runtime",
                 record=False)
    # The coordinator's lease-grant and result-fold handlers are its
    # dispatch work; everything else its threads do is waiting.
    for name in ("_grant", "_fold_result"):
        rec.wrap(Coordinator, name, "runtime.dispatch", "runtime")

    # dist: messages and bytes on the wire, both directions counted at
    # the sender.
    def count_message(_result, args, _kwargs):
        counts["dist.messages"] += 1
        counts["dist.bytes"] += len(json.dumps(args[1], sort_keys=True)) + 1

    rec.wrap(MessageStream, "send", "dist.send", "dist", record=False,
             after=count_message)


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


def self_time_table(self_s: Dict[str, float], calls: Dict[str, int]) -> str:
    """Per-span self-time table, largest first, with layer totals."""
    total = sum(self_s.values()) or 1.0
    lines = [f"{'span':<22} {'layer':<9} {'calls':>10} {'self_s':>10} "
             f"{'share':>7}"]
    for key, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"{key:<22} {layer_of(key):<9} {calls.get(key, 0):>10} "
                     f"{secs:>10.4f} {secs / total:>7.1%}")
    by_layer: Dict[str, float] = defaultdict(float)
    for key, secs in self_s.items():
        by_layer[layer_of(key)] += secs
    lines.append("")
    lines.append(f"{'layer':<22} {'self_s':>10} {'share':>7}")
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<22} {secs:>10.4f} {secs / total:>7.1%}")
    return "\n".join(lines) + "\n"


def chrome_trace(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process dumps into one Chrome ``traceEvents`` file."""
    events = []
    origin = min((s[3] for d in dumps for s in d["spans"]), default=0.0)
    for dump in dumps:
        for span in dump["spans"]:
            span_id, name, layer, start, end, parent, job, tid = span
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": dump["pid"], "tid": tid,
                "args": {"id": span_id, "parent": parent, "job": job},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
