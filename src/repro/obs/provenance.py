"""Execution provenance: rolling state digests and divergence ledgers.

When two runs of the same job disagree — a fast-path engine against the
reference interpreter, a perturbed configuration against a baseline, a
fleet worker against a serial run — a pass/fail cycle comparison says
*that* they diverged but not *where*.  This module makes the "where"
cheap to capture and mechanical to find:

* :class:`StateDigester` — a simulator observer (plus
  :mod:`repro.sim.stats` merges) that folds architectural state into
  **rolling 64-bit digests**, one stream per ``(core, warp)`` closed
  every ``interval_cycles`` simulated cycles.  The result is a per-job **digest ledger**: an ordered list of
  ``[kernel, interval, core, warp, digest, events]`` records small
  enough to ride inside a :class:`~repro.runtime.cache.RunSummary`,
  through the run journal, the result cache and the fleet protocol.
* ledger comparison helpers — :func:`diff_ledgers` /
  :func:`first_divergence` bisect two ledgers to the first coordinate
  whose digests disagree, which is exactly the first simulated interval
  at which the two executions stopped being the same machine.

Disabled (``REPRO_DIGEST`` unset), the digester is bound to no launch,
so cycle counts and summary dicts are bit-identical either way.  Digests
fold only *simulated* values (times, opcodes, latencies, counts), so an
enabled digester never perturbs cycles either; it can only observe.

Digest grammar (all integers, folded with 64-bit FNV-1a so the value is
identical across processes and Python versions — ``hash()`` is not):

* warp stream ``(k, i, c, w >= 0)`` — tagged issue events
  ``(1, t, op, phase, done)`` and stall events ``(2, t, cat, cycles)``;
* memory stream ``(k, i, c, -1)`` — per-access ``(t, lines, latency)``
  traffic of core ``c``;
* kernel summary ``(k, -1, -1, -1)`` — total cycles, instructions,
  DRAM fills, sorted stall cells and per-level cache hit/miss counts;
* merge stream ``(-1, -1, -1, -1)`` — the order and content of
  :meth:`~repro.sim.stats.KernelStats.merge` calls across the job.

Coordinates use ``-1`` as "not applicable"; :func:`sort_key` orders
summary records after the interval streams they summarize, so "first
divergence" always lands on the finest-grained record available.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.observer import SimObserver, register

#: Environment switch; any non-empty value enables digest capture.
DIGEST_ENV = "REPRO_DIGEST"

#: Environment override for the digest interval (simulated cycles).
INTERVAL_ENV = "REPRO_DIGEST_INTERVAL"

#: Default rolling-digest interval.  8192 cycles keeps smoke-bench
#: ledgers at tens of records per kernel while still localizing a
#: divergence to well under one kernel iteration.
DEFAULT_INTERVAL = 8192

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: Coordinate of one ledger record: (kernel, interval, core, warp).
Coord = Tuple[int, int, int, int]


def fold(h: int, value: int) -> int:
    """Fold one integer into a rolling 64-bit FNV-1a digest.

    Explicit arithmetic (not Python ``hash()``) so the digest of the
    same event stream is identical across interpreter versions,
    processes and machines — ledgers from a fleet worker must compare
    equal to serial ones bit-for-bit.
    """
    return ((h ^ (value & _MASK)) * _FNV_PRIME) & _MASK


def digest_hex(h: int) -> str:
    """Canonical 16-hex-digit rendering of a digest value."""
    return f"{h:016x}"


def resolve_interval(value: Optional[int] = None) -> int:
    """The digest interval: explicit arg, else env, else the default."""
    if value is not None:
        return max(1, int(value))
    raw = os.environ.get(INTERVAL_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass  # a garbled override falls back to the default
    return DEFAULT_INTERVAL


class StateDigester(SimObserver):
    """Rolling per-interval digests of simulated architectural state.

    Bound to a launch's issue, stall, memory and kernel events only
    while :attr:`enabled`, so a disabled digester costs nothing.
    """

    def __init__(self, enabled: bool = False,
                 interval_cycles: Optional[int] = None) -> None:
        self.enabled = enabled
        self.interval_cycles = resolve_interval(interval_cycles)
        #: Closed records: [kernel, interval, core, warp, hex, events].
        self._records: List[List[Any]] = []
        #: Open streams: (core, warp) -> [interval, digest, events].
        self._streams: Dict[Tuple[int, int], List[int]] = {}
        self._kernel = -1
        self._merge_digest = _FNV_OFFSET
        self._merge_events = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin_job(self) -> None:
        """Reset all state; the next kernel is index 0."""
        self._records = []
        self._streams = {}
        self._kernel = -1
        self._merge_digest = _FNV_OFFSET
        self._merge_events = 0

    def begin_kernel(self) -> None:
        """Advance to the next kernel in launch order."""
        self._flush_streams()  # safety: a kernel that never ended
        self._kernel += 1

    def end_kernel(self, stats,
                   cache_deltas: Dict[str, Tuple[int, int]]) -> None:
        """Close the kernel: flush streams, emit its summary record.

        ``stats`` is the kernel's :class:`~repro.sim.stats.KernelStats`
        (only plain counters are read); ``cache_deltas`` maps cache
        levels (``"L1"``, ``"L2"``, ...) to its ``(hits, misses)``.
        """
        self._flush_streams()
        h = _FNV_OFFSET
        h = fold(h, int(stats.total_cycles))
        h = fold(h, int(stats.instructions))
        h = fold(h, int(stats.warps_launched))
        h = fold(h, int(stats.dram_accesses))
        for (core, warp, cat), cycles in sorted(
                ((int(c), int(w), int(s)), int(v))
                for (c, w, s), v in stats.stall_cells.items()):
            h = fold(h, core)
            h = fold(h, warp)
            h = fold(h, cat)
            h = fold(h, cycles)
        # Levels fold under their historical "mem/l1"-style labels, and
        # only when looked up, so ledgers stay comparable across
        # versions.
        for level, (hits, misses) in sorted(
                ("mem/" + name.lower(), counts)
                for name, counts in cache_deltas.items()
                if counts != (0, 0)):
            for ch in level.encode("utf-8"):
                h = fold(h, ch)
            h = fold(h, hits)
            h = fold(h, misses)
        self._records.append([self._kernel, -1, -1, -1, digest_hex(h),
                              int(stats.instructions)])

    def take_ledger(self) -> Optional[List[List[Any]]]:
        """The job's closed ledger (and reset), or ``None`` if empty."""
        self._flush_streams()
        if self._merge_events:
            self._records.append([-1, -1, -1, -1,
                                  digest_hex(self._merge_digest),
                                  self._merge_events])
        records, self._records = self._records, []
        self._streams = {}
        self._kernel = -1
        self._merge_digest = _FNV_OFFSET
        self._merge_events = 0
        return records or None

    # ------------------------------------------------------------------
    # simulator events
    # ------------------------------------------------------------------
    def _stream(self, core: int, warp: int, t: int) -> List[int]:
        """The open interval cell for ``(core, warp)`` at time ``t``."""
        key = (core, warp)
        iv = t // self.interval_cycles
        cell = self._streams.get(key)
        if cell is None:
            cell = [iv, _FNV_OFFSET, 0]
            self._streams[key] = cell
        elif iv > cell[0]:
            self._records.append([self._kernel, cell[0], core, warp,
                                  digest_hex(cell[1]), cell[2]])
            cell[0] = iv
            cell[1] = _FNV_OFFSET
            cell[2] = 0
        return cell

    def issue(self, t: int, core: int, warp: int, op: int,
              phase: int, done: int) -> None:
        """Fold one issued instruction into the warp's stream."""
        cell = self._stream(core, warp, t)
        h = cell[1]
        h = fold(h, 1)
        h = fold(h, t)
        h = fold(h, op)
        h = fold(h, phase)
        h = fold(h, done)
        cell[1] = h
        cell[2] += 1

    def stall(self, t: int, core: int, warp: int, cat: int,
              cycles: int) -> None:
        """Fold one attributed stall gap into the warp's stream."""
        cell = self._stream(core, warp, t)
        h = cell[1]
        h = fold(h, 2)
        h = fold(h, t)
        h = fold(h, cat)
        h = fold(h, cycles)
        cell[1] = h
        cell[2] += 1

    def mem(self, t: int, core: int, lines: int,
            latency: int) -> None:
        """Fold one coalesced memory access into the core's stream."""
        cell = self._stream(core, -1, t)
        h = cell[1]
        h = fold(h, t)
        h = fold(h, lines)
        h = fold(h, latency)
        cell[1] = h
        cell[2] += 1

    def note_merge(self, total_cycles: int, instructions: int) -> None:
        """Fold one :meth:`KernelStats.merge` into the merge stream."""
        h = self._merge_digest
        h = fold(h, total_cycles)
        h = fold(h, instructions)
        self._merge_digest = h
        self._merge_events += 1

    # ------------------------------------------------------------------
    def _flush_streams(self) -> None:
        """Close every open interval stream into the record list."""
        if not self._streams:
            return
        for (core, warp), cell in sorted(self._streams.items()):
            self._records.append([self._kernel, cell[0], core, warp,
                                  digest_hex(cell[1]), cell[2]])
        self._streams = {}


# ----------------------------------------------------------------------
# Process-global digester (watches every launch while enabled)
# ----------------------------------------------------------------------
_DIGESTER = register(StateDigester(
    enabled=bool(os.environ.get(DIGEST_ENV, "").strip())
))


def get_digester() -> StateDigester:
    """The process-global digester the simulator hot path consults."""
    return _DIGESTER


def digests_enabled() -> bool:
    """Whether the global digester is collecting."""
    return _DIGESTER.enabled


def enable_digests(interval_cycles: Optional[int] = None
                   ) -> StateDigester:
    """Turn the global digester on; returns it for convenience.

    The interval is ``interval_cycles`` when given, else
    :func:`resolve_interval`'s environment override or default — never
    one left behind by an earlier call. Also exports ``REPRO_DIGEST=1``
    (and the interval override, when given) so worker processes
    spawned later — pool or fleet — come up digesting, and the ledgers
    they ship home are comparable.
    """
    _DIGESTER.enabled = True
    os.environ[DIGEST_ENV] = "1"
    _DIGESTER.interval_cycles = resolve_interval(interval_cycles)
    if interval_cycles is not None:
        os.environ[INTERVAL_ENV] = str(_DIGESTER.interval_cycles)
    return _DIGESTER


def disable_digests(clear: bool = False) -> StateDigester:
    """Turn the global digester off (optionally dropping its state)."""
    _DIGESTER.enabled = False
    os.environ.pop(DIGEST_ENV, None)
    if clear:
        _DIGESTER.begin_job()
    return _DIGESTER


# ----------------------------------------------------------------------
# Ledger comparison
# ----------------------------------------------------------------------
_LATE = 1 << 62  # sentinel coordinates sort after real ones


def sort_key(coord: Coord) -> Tuple[int, int, int, int]:
    """Comparison order: interval streams first, summaries after them.

    ``-1`` coordinates mean "summary over everything at this level", so
    they sort *after* the records they summarize — a first divergence
    then always names the finest record that disagrees.
    """
    return tuple(v if v >= 0 else _LATE for v in coord)  # type: ignore


def ledger_index(ledger: Optional[Iterable[Iterable[Any]]]
                 ) -> Dict[Coord, Tuple[str, int]]:
    """A ledger as ``{(k, i, c, w): (digest, events)}``.

    Tolerates JSON round-trips (coordinates arrive as ints or floats)
    and ``None`` / empty ledgers (an older run with no digests).
    """
    out: Dict[Coord, Tuple[str, int]] = {}
    for record in ledger or ():
        k, i, c, w, digest, events = record
        out[(int(k), int(i), int(c), int(w))] = (str(digest),
                                                 int(events))
    return out


def diff_ledgers(a, b) -> List[Dict[str, Any]]:
    """Every diverging coordinate between two ledgers, in sort order.

    Each divergence is ``{"coord", "a", "b", "events_a", "events_b"}``
    with ``None`` digests for records present on only one side.  An
    empty list means the ledgers are identical.
    """
    ia, ib = ledger_index(a), ledger_index(b)
    out: List[Dict[str, Any]] = []
    for coord in sorted(set(ia) | set(ib), key=sort_key):
        da, ea = ia.get(coord, (None, None))
        db, eb = ib.get(coord, (None, None))
        if da != db:
            out.append({"coord": coord, "a": da, "b": db,
                        "events_a": ea, "events_b": eb})
    return out


def first_divergence(a, b) -> Optional[Dict[str, Any]]:
    """The earliest diverging coordinate, or ``None`` when clean."""
    diffs = diff_ledgers(a, b)
    return diffs[0] if diffs else None


def context_window(a, b, coord: Coord, context: int = 3
                   ) -> List[Dict[str, Any]]:
    """Rows around ``coord``: the matched/diverged neighborhood.

    Returns up to ``context`` records before and after the coordinate
    (in sort order) from the union of both ledgers, each row carrying
    both sides' digests and a ``"match"`` flag — the side-by-side view
    ``repro diff`` prints.
    """
    ia, ib = ledger_index(a), ledger_index(b)
    coords = sorted(set(ia) | set(ib), key=sort_key)
    coord = tuple(int(v) for v in coord)  # type: ignore
    try:
        center = coords.index(coord)
    except ValueError:
        return []
    rows = []
    for c in coords[max(0, center - context):center + context + 1]:
        da, ea = ia.get(c, (None, None))
        db, eb = ib.get(c, (None, None))
        rows.append({"coord": c, "a": da, "b": db, "events_a": ea,
                     "events_b": eb, "match": da == db})
    return rows


def describe_coord(coord: Coord) -> str:
    """Human name of a ledger coordinate."""
    k, i, c, w = (int(v) for v in coord)
    if k < 0:
        return "stats-merge stream"
    if i < 0:
        return f"kernel {k} summary"
    if w < 0:
        return f"kernel {k} interval {i} core {c} memory stream"
    return f"kernel {k} interval {i} core {c} warp {w}"


# ----------------------------------------------------------------------
# Run-ledger loaders (``repro diff`` sources)
# ----------------------------------------------------------------------
def ledgers_from_journal(path) -> Dict[str, Dict[str, Any]]:
    """``label -> summary dict`` from a run journal's completions.

    A deliberately tolerant reader: torn or non-JSON lines, non-object
    records and lease/reclaim bookkeeping are skipped, and *no* schema
    or simulator-version gate is applied — diffing a ledger from an
    older build against today's is precisely the point.  The label
    (falling back to the content hash) keys the result so perturbed
    re-runs, whose hashes differ by construction, still pair up.
    """
    import json

    out: Dict[str, Dict[str, Any]] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn line
            if not isinstance(record, dict):
                continue
            if record.get("type", "complete") != "complete":
                continue
            summary = record.get("summary")
            if not isinstance(summary, dict):
                continue
            label = record.get("label") or record.get("hash") or "?"
            out[str(label)] = summary
    return out


def ledgers_from_cache_dir(path) -> Dict[str, Dict[str, Any]]:
    """``label -> summary dict`` from a result-cache directory."""
    import json
    from pathlib import Path

    out: Dict[str, Dict[str, Any]] = {}
    for entry_path in sorted(Path(path).glob("*.json")):
        try:
            entry = json.loads(entry_path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(entry, dict):
            continue
        summary = entry.get("summary")
        if not isinstance(summary, dict):
            continue
        label = entry.get("label") or entry_path.stem
        out[str(label)] = summary
    return out


# ----------------------------------------------------------------------
# Replay support
# ----------------------------------------------------------------------
class KernelWindowTracer(SimObserver):
    """An :class:`~repro.sim.trace.ExecutionTracer` gate for one kernel.

    ``repro diff --replay`` re-runs a job recording only the diverging
    kernel: each ``begin_kernel`` event advances the launch counter,
    and issue/stall events delegate to the wrapped tracer only while
    the counter matches ``target`` — full per-cycle capture of one
    kernel without paying for the rest.
    """

    def __init__(self, target: int, max_events: int = 200_000) -> None:
        from repro.sim.trace import ExecutionTracer

        self.target = int(target)
        self.kernel = -1
        self.inner = ExecutionTracer(max_events=max_events)

    def begin_kernel(self) -> None:
        """A launch starts: advance the launch counter."""
        self.kernel += 1

    @property
    def active(self) -> bool:
        """Whether events are currently being captured."""
        return self.kernel == self.target

    def issue(self, time, core, warp, op, phase, done) -> None:
        if self.kernel == self.target:
            self.inner.issue(time, core, warp, op, phase, done)

    def stall(self, time, core, warp, cat, cycles) -> None:
        if self.kernel == self.target:
            self.inner.stall(time, core, warp, cat, cycles)
