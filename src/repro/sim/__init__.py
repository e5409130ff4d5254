"""Simulation layer: configuration, system builder, engine, statistics.

The campaign executor's names (:mod:`repro.sim.runner`: ``run_matrix``,
``SimTask``, ``run_matrix_detailed`` and the rest) are resolved lazily, on
first access, by the module ``__getattr__`` below. The runner brings in
``multiprocessing``, ``socket``, ``pickle``, ``subprocess`` and the
result store; a process that builds and runs a single cell needs none
of them, and importing them eagerly cost every such process about
2 MiB of resident memory. ``from repro.sim import run_matrix`` and
``__all__`` work as before.
"""

from typing import Any

from repro.sim.config import SimConfig
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.stats import SimStats
from repro.sim.system import (
    HYPERVISOR_SPACE,
    CoherenceBridge,
    SimulatedSystem,
    build_system,
    compute_friends,
)


def __getattr__(name: str) -> Any:
    # Only names not bound above get here: every other name of
    # ``__all__`` comes from the runner.
    if name in __all__:
        from repro.sim import runner

        value = getattr(runner, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CampaignInterrupted",
    "CampaignSettings",
    "CoherenceBridge",
    "HYPERVISOR_SPACE",
    "SimConfig",
    "SimStats",
    "SimTask",
    "SimulatedSystem",
    "SimulationEngine",
    "TaskError",
    "TaskResult",
    "build_system",
    "campaign_settings",
    "compute_friends",
    "default_jobs",
    "run_matrix",
    "run_matrix_detailed",
    "run_simulation",
    "run_simulation_task",
    "set_campaign",
    "set_default_jobs",
    "task_key",
    "warmup_fingerprint",
]
