"""The kernel-differential check every differential suite shares.

A batched run must leave exactly what the reference engine leaves: the
same ``SimStats.to_dict()`` bytes and the same ``system.snapshot([])``
end state — cache sets with their LRU order, registry records with
their provider order, residence counters, page tables and workload
state. Stats alone miss a wrong LRU order or a misplaced line until it
changes a later hit; the end state shows it at once.
"""

import json
from dataclasses import replace

from repro.sim.config import SimConfig
from repro.sim.kernel import engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES


def run_system(config: SimConfig, app="fft"):
    """Build and run ``config`` on ``app`` (a profile name or a profile);
    returns ``(system, engine)``."""
    profile = PROFILES[app] if isinstance(app, str) else app
    system = build_system(config, profile)
    engine = engine_for(system)
    engine.run()
    return system, engine


def end_state(system) -> tuple:
    """What two kernels must agree on: stats bytes and the end state."""
    return (
        json.dumps(system.stats.to_dict(), sort_keys=True),
        system.snapshot([]),
    )


def assert_identical(config: SimConfig, app="fft") -> None:
    """Run ``config`` under both kernels and compare their end states."""
    reference, _ = run_system(replace(config, kernel="reference"), app)
    batched, _ = run_system(replace(config, kernel="batched"), app)
    assert_same_end_state(batched, reference)


def assert_same_end_state(batched, reference) -> None:
    """Compare two finished systems, naming the first part that differs."""
    stats, snapshot = end_state(batched)
    reference_stats, reference_snapshot = end_state(reference)
    assert stats == reference_stats, "SimStats differ across kernels"
    differing = [
        key for key in reference_snapshot
        if snapshot[key] != reference_snapshot[key]
    ]
    assert not differing, f"end state differs across kernels: {differing}"
