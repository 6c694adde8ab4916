"""Simulator engine registry: the first-class ``engine=`` surface.

An *engine* decides which execution loop a run's kernels go through:

* ``reference`` — the per-instruction interpreter of
  :mod:`repro.sim.gpu`.  Always available, always correct; the
  ground truth every other engine must match bit-for-bit.
* ``fast`` — :class:`repro.sim.fast.FastGPU`: the same loop, fed by
  stored records for kernels it can replay and run live for the rest.
  Bit-identical cycles, stall cells, summary dicts and provenance
  ledgers.
* ``auto`` — per-run selection: ``fast`` unless the schedule needs a
  hardware unit for its gather kernel (SparseWeaver/EGHW), in which
  case ``reference`` is used wholesale.

Engines are deliberately *excluded* from job identity: the same spec
produces the same cycles under every engine, so cache keys, journal
entries and fleet hashes are engine-blind.  The engine choice is
recorded in telemetry and run metadata instead.

Resolution precedence: explicit ``engine=`` argument, else the
``REPRO_ENGINE`` environment variable, else ``reference``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.sim.config import GPUConfig
from repro.sim.fast import FastGPU
from repro.sim.gpu import GPU

#: Environment variable consulted when no explicit engine is given.
ENGINE_ENV = "REPRO_ENGINE"

#: Engine used when neither argument nor environment selects one.
DEFAULT_ENGINE = "reference"


@runtime_checkable
class SimulatorEngine(Protocol):
    """What an execution engine must provide.

    ``build_gpu`` returns the GPU object a run drives; ``schedule``
    (when the caller has one) lets per-run selection policies like
    ``auto`` pick a loop per workload.  A registered engine's GPU must
    produce bit-identical :class:`~repro.sim.stats.KernelStats` to the
    reference interpreter — see ``docs/engines.md`` for the validation
    recipe.
    """

    name: str

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        """Construct the GPU this engine runs kernels on."""
        ...


class ReferenceEngine:
    """The per-instruction interpreter (ground truth)."""

    name = "reference"

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        return GPU(config)


class FastEngine:
    """Record replay where a kernel allows it, live execution elsewhere."""

    name = "fast"

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        return FastGPU(config)


class AutoEngine:
    """Per-run selection: fast unless the schedule needs a unit."""

    name = "auto"

    def build_gpu(self, config: GPUConfig, schedule=None) -> GPU:
        if schedule is not None and getattr(schedule, "uses_hardware_unit",
                                            False):
            return GPU(config)
        return FastGPU(config)


_ENGINES: Dict[str, SimulatorEngine] = {}


def register_engine(engine: SimulatorEngine) -> SimulatorEngine:
    """Register an engine under its ``name`` (last writer wins)."""
    name = getattr(engine, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigError("engines must expose a non-empty string 'name'")
    if not callable(getattr(engine, "build_gpu", None)):
        raise ConfigError(
            f"engine {name!r} must expose build_gpu(config, schedule=None)")
    _ENGINES[name] = engine
    return engine


def available_engines() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_ENGINES)


def resolve_engine_name(name: Optional[str] = None) -> str:
    """Apply the argument > ``REPRO_ENGINE`` > default precedence."""
    if name is not None:
        return str(name)
    env = os.environ.get(ENGINE_ENV, "").strip()
    return env or DEFAULT_ENGINE


def get_engine(name: Optional[str] = None) -> SimulatorEngine:
    """Look an engine up by name (``None`` = resolve from environment)."""
    resolved = resolve_engine_name(name)
    try:
        return _ENGINES[resolved]
    except KeyError:
        raise ConfigError(
            f"unknown simulator engine {resolved!r}; available: "
            f"{', '.join(available_engines())}"
        ) from None


def build_gpu(config: GPUConfig, engine: Optional[str] = None,
              schedule=None) -> GPU:
    """Registry-routed replacement for direct ``GPU(config)`` calls."""
    return get_engine(engine).build_gpu(config, schedule=schedule)


register_engine(ReferenceEngine())
register_engine(FastEngine())
register_engine(AutoEngine())
