"""Batched simulation engine: caching + process-pool sharding + vectorised models.

Public surface:

* :class:`SimulationEngine` — ``run(workloads, configs, parallel=N)`` for
  batched layer evaluation, ``run_network`` for full per-network simulations
  (what the figure experiments consume) and ``run_networks`` for several of
  them in one longest-first pool pass, ``run_architectures`` for
  workload x architecture grids evaluated through the registry's simulator
  adapters (what the ``compare`` sweeps consume), and ``sweep`` for parallel
  design-space exploration.
* :func:`default_engine` / :func:`configure_default_engine` — the shared
  engine instance the experiment layer and CLI route through.
* :class:`ResultCache` and :class:`WorkloadHandle` — the content-addressed
  on-disk store and the lazy workload recipe the engine is built on.

See ``docs/architecture.md`` for the design (vectorisation strategy,
sharding rules, cache invalidation).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.engine.cache import ResultCache, SCHEMA_VERSION, default_cache_dir, fingerprint
from repro.engine.core import ArchitectureRun, EngineRun, SimulationEngine
from repro.engine.parallel import parallel_map, resolve_workers
from repro.engine.workloads import WorkloadHandle

_default_engine: Optional[SimulationEngine] = None


def _env_parallel() -> Optional[int]:
    import os

    raw = os.environ.get("REPRO_PARALLEL")
    return int(raw) if raw else None


def default_engine() -> SimulationEngine:
    """The process-wide engine instance (created on first use).

    Honours ``REPRO_CACHE_DIR`` (disk cache root) and ``REPRO_PARALLEL``
    (default pool size) unless :func:`configure_default_engine` replaced it.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = SimulationEngine(parallel=_env_parallel())
    return _default_engine


def configure_default_engine(
    cache_dir: Union[None, bool, str, Path] = None,
    parallel: Optional[int] = None,
) -> SimulationEngine:
    """Replace the shared engine (CLI flags, notebooks, tests).

    ``parallel=None`` falls back to ``REPRO_PARALLEL``, mirroring how
    ``cache_dir=None`` falls back to ``REPRO_CACHE_DIR`` — reconfiguring one
    knob never silently discards the other's environment default.
    """
    global _default_engine
    if parallel is None:
        parallel = _env_parallel()
    _default_engine = SimulationEngine(cache_dir=cache_dir, parallel=parallel)
    return _default_engine


__all__ = [
    "ArchitectureRun",
    "EngineRun",
    "ResultCache",
    "SCHEMA_VERSION",
    "SimulationEngine",
    "WorkloadHandle",
    "configure_default_engine",
    "default_cache_dir",
    "default_engine",
    "fingerprint",
    "parallel_map",
    "resolve_workers",
]
