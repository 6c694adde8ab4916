"""Process-local metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process collects named instruments
with optional key=value labels (Prometheus-style).  The registry is
*disabled by default* — a disabled registry hands out no-op
instruments whose ``inc``/``set``/``observe`` are empty methods, so
instrumented hot paths cost one dict lookup and one no-op call.

Enable it per process (``enable_metrics()`` or ``REPRO_OBS=1`` in the
environment), and every instrumented layer — the simulator publishing
:class:`~repro.sim.stats.KernelStats` at kernel end, the batch
engine's job counters, the result cache's hit/miss/eviction counters,
telemetry event counts — accumulates into one place.

Registries cross process boundaries as *snapshots*: plain JSON-able
dicts produced by :meth:`MetricsRegistry.snapshot` and folded back
with :meth:`MetricsRegistry.merge_snapshot`.  The batch engine uses
exactly this to aggregate worker-process metrics into the parent
(counters and histograms add; gauges keep the incoming value).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.observer import SimObserver, register

#: Sorted ``(key, value)`` pairs — the hashable form of a label set.
LabelSet = Tuple[Tuple[str, str], ...]

#: Histogram bucket upper bounds used when none are given (seconds).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    """Normalize a labels dict into a sorted, hashable tuple."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def percentile_from_counts(bounds: Sequence[float],
                           counts: Sequence[int],
                           q: float) -> float:
    """Estimate the ``q``-th percentile of a bucketed distribution.

    ``bounds`` are the bucket upper bounds; ``counts`` holds one cell
    per bound plus a final overflow cell (per-bucket counts, not
    cumulative).  The estimate is the upper bound of the bucket the
    ``q``-quantile sample falls in — the standard conservative answer
    for pre-aggregated histograms.  Overflow samples report the last
    finite bound; an empty distribution reports ``0.0``.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q!r} out of range [0, 100]")
    total = sum(counts)
    if total <= 0:
        return 0.0
    rank = q / 100.0 * total
    seen = 0
    for i, cell in enumerate(counts):
        seen += cell
        if seen >= rank and cell:
            return float(bounds[i]) if i < len(bounds) else float(bounds[-1])
    return float(bounds[-1])


class _NoopInstrument:
    """Shared stand-in handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels) -> None:
        """Do nothing."""

    def set(self, value: float, **labels) -> None:
        """Do nothing."""

    def observe(self, value: float, **labels) -> None:
        """Do nothing."""


_NOOP = _NoopInstrument()


class Counter:
    """Monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelSet, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the series selected by ``labels``."""
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _labelset(labels)
        self.values[key] = self.values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value of one labelled series (0.0 if never touched)."""
        return self.values.get(_labelset(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self.values.values())


class Gauge:
    """Last-written value, optionally split by labels."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels) -> None:
        """Record the current level of the labelled series."""
        self.values[_labelset(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        """Adjust the labelled series by ``value`` (may be negative)."""
        key = _labelset(labels)
        self.values[key] = self.values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value of one labelled series (0.0 if never set)."""
        return self.values.get(_labelset(labels), 0.0)


class Histogram:
    """Bucketed distribution (cumulative counts, like Prometheus)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        # Per label set: [per-bucket counts..., overflow], sum, count.
        self.values: Dict[LabelSet, Dict[str, Any]] = {}

    def _series(self, key: LabelSet) -> Dict[str, Any]:
        series = self.values.get(key)
        if series is None:
            series = {"counts": [0] * (len(self.buckets) + 1),
                      "sum": 0.0, "count": 0}
            self.values[key] = series
        return series

    def observe(self, value: float, **labels) -> None:
        """Record one sample into the labelled series."""
        series = self._series(_labelset(labels))
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series["counts"][idx] += 1
        series["sum"] += value
        series["count"] += 1

    def count(self, **labels) -> int:
        """Number of samples observed in one labelled series."""
        return self.values.get(_labelset(labels), {}).get("count", 0)

    def sum(self, **labels) -> float:
        """Sum of samples observed in one labelled series."""
        return self.values.get(_labelset(labels), {}).get("sum", 0.0)

    def percentile(self, q: float, **labels) -> float:
        """Bucketed ``q``-th percentile estimate of one labelled series.

        See :func:`percentile_from_counts` for the estimation rule
        (upper bound of the quantile's bucket; 0.0 when empty).
        """
        series = self.values.get(_labelset(labels))
        if series is None:
            return 0.0
        return percentile_from_counts(self.buckets, series["counts"], q)


# ----------------------------------------------------------------------
class MetricsRegistry(SimObserver):
    """Named instruments plus snapshot/merge for process aggregation."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, name: str, factory, kind: str):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory()
                self._instruments[name] = inst
            elif inst.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"not {kind}"
                )
            return inst

    def counter(self, name: str, help: str = ""):
        """Get or create a :class:`Counter` (no-op when disabled)."""
        if not self.enabled:
            return _NOOP
        return self._get(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = ""):
        """Get or create a :class:`Gauge` (no-op when disabled)."""
        if not self.enabled:
            return _NOOP
        return self._get(name, lambda: Gauge(name, help), "gauge")

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS):
        """Get or create a :class:`Histogram` (no-op when disabled)."""
        if not self.enabled:
            return _NOOP
        return self._get(
            name, lambda: Histogram(name, help, buckets), "histogram")

    # ------------------------------------------------------------------
    def instruments(self) -> List[Any]:
        """Registered instruments, sorted by name."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def get(self, name: str):
        """Look up an instrument by name (``None`` when absent)."""
        return self._instruments.get(name)

    def clear(self) -> None:
        """Drop every instrument (registry stays enabled/disabled)."""
        with self._lock:
            self._instruments.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able dump of every instrument and labelled series."""
        out: Dict[str, Any] = {"metrics": {}}
        for inst in self.instruments():
            entry: Dict[str, Any] = {"kind": inst.kind, "help": inst.help}
            if inst.kind == "histogram":
                entry["buckets"] = list(inst.buckets)
                entry["series"] = [
                    {"labels": dict(key), "counts": list(s["counts"]),
                     "sum": s["sum"], "count": s["count"]}
                    for key, s in sorted(inst.values.items())
                ]
            else:
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(inst.values.items())
                ]
            out["metrics"][inst.name] = entry
        return out

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        Counters and histograms accumulate; gauges adopt the incoming
        value (last write wins, matching their point-in-time meaning).
        A disabled registry ignores the snapshot entirely, and a
        ``None`` or empty snapshot — a worker that died before
        recording anything — merges as a no-op rather than raising.
        """
        if not self.enabled or not isinstance(snap, dict):
            return
        for name, entry in (snap.get("metrics") or {}).items():
            kind = entry.get("kind")
            if kind == "counter":
                inst = self.counter(name, entry.get("help", ""))
                for series in entry.get("series", []):
                    inst.inc(series["value"], **series.get("labels", {}))
            elif kind == "gauge":
                inst = self.gauge(name, entry.get("help", ""))
                for series in entry.get("series", []):
                    inst.set(series["value"], **series.get("labels", {}))
            elif kind == "histogram":
                inst = self.histogram(
                    name, entry.get("help", ""),
                    buckets=entry.get("buckets", DEFAULT_BUCKETS))
                for series in entry.get("series", []):
                    key = _labelset(series.get("labels", {}))
                    dst = inst._series(key)
                    counts = series.get("counts", [])
                    if len(counts) != len(dst["counts"]):
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch while "
                            f"merging ({len(counts)} vs "
                            f"{len(dst['counts'])} counts)")
                    for i, c in enumerate(counts):
                        dst["counts"][i] += c
                    dst["sum"] += series.get("sum", 0.0)
                    dst["count"] += series.get("count", 0)

    # ------------------------------------------------------------------
    def end_kernel(self, stats, cache_deltas) -> None:
        """Fold a finished kernel into counters: the registry's only
        simulator event, so metrics add nothing per instruction."""
        self.counter("sim_kernels_total",
                     "Kernels simulated").inc()
        self.counter("sim_cycles_total",
                     "Simulated cycles").inc(stats.total_cycles)
        self.counter("sim_instructions_total",
                     "Warp instructions issued").inc(stats.instructions)
        self.counter("sim_warps_launched_total",
                     "Warps launched").inc(stats.warps_launched)
        stalls = self.counter("sim_stall_cycles_total",
                              "Stall cycles by class")
        for cat, cycles in stats.stall_cycles.items():
            stalls.inc(cycles, stall=cat.name)
        phases = self.counter("sim_phase_cycles_total",
                              "Cycles by execution phase")
        for phase, cycles in stats.phase_cycles.items():
            phases.inc(cycles, phase=phase.name)
        self.counter("sim_dram_accesses_total",
                     "DRAM line fills").inc(stats.dram_accesses)
        cache = self.counter("sim_cache_accesses_total",
                             "Cache accesses by level and outcome")
        for level, (hits, misses) in cache_deltas.items():
            if hits:
                cache.inc(hits, level=level, outcome="hit")
            if misses:
                cache.inc(misses, level=level, outcome="miss")

    def save(self, path) -> Path:
        """Write :meth:`snapshot` as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), sort_keys=True,
                                   indent=1) + "\n")
        return path

    def format(self) -> str:
        """Human-readable one-line-per-series dump."""
        lines = []
        for inst in self.instruments():
            if inst.kind == "histogram":
                for key, series in sorted(inst.values.items()):
                    label = _format_labels(key)
                    lines.append(
                        f"{inst.name}{label} count={series['count']} "
                        f"sum={series['sum']:.6g}")
            else:
                for key, value in sorted(inst.values.items()):
                    lines.append(
                        f"{inst.name}{_format_labels(key)} {value:g}")
        return "\n".join(lines)


def _format_labels(key: LabelSet) -> str:
    if not key:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in key)
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Process-global default registry
# ----------------------------------------------------------------------
_REGISTRY = register(MetricsRegistry(
    enabled=bool(os.environ.get("REPRO_OBS", "").strip())
))


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumented layer defaults to."""
    return _REGISTRY


def metrics_enabled() -> bool:
    """Whether the global registry is collecting."""
    return _REGISTRY.enabled


def enable_metrics() -> MetricsRegistry:
    """Turn the global registry on; returns it for convenience."""
    _REGISTRY.enabled = True
    return _REGISTRY


def disable_metrics(clear: bool = False) -> MetricsRegistry:
    """Turn the global registry off (optionally dropping its data)."""
    _REGISTRY.enabled = False
    if clear:
        _REGISTRY.clear()
    return _REGISTRY
