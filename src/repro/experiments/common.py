"""Shared infrastructure for the per-figure experiment drivers.

Every driver returns plain dicts/lists so tests and the benchmark
harness can assert on them, and exposes a ``main()`` that prints the
same rows/series the paper's figure or table reports.

Drivers fan their simulation matrices out through
:mod:`repro.sim.runner`: build the full (config, app) task list, run it
with :func:`~repro.sim.runner.run_matrix` under a label naming the
figure, and zip the (input-ordered) results back. The job count comes
from ``repro-sim --jobs`` / ``REPRO_JOBS``; results are bit-identical
at any job count.

Set ``REPRO_FAST=1`` to shrink run lengths (quarter-size traces, subset
of applications) for quick smoke runs of the benchmark suite.
"""

from __future__ import annotations

import os
from typing import List

from repro.sim import SimStats


def fast_mode() -> bool:
    """Whether the benchmark suite runs in reduced-size mode."""
    return os.environ.get("REPRO_FAST", "") not in ("", "0")


def scaled(accesses: int, factor: int = 4) -> int:
    """Shrink an access budget in fast mode."""
    return accesses // factor if fast_mode() else accesses


def select_apps(apps: List[str], fast_subset: int = 3) -> List[str]:
    """Full application list, or a deterministic subset in fast mode."""
    return apps[:fast_subset] if fast_mode() else list(apps)


def normalized_snoops_percent(stats: SimStats, num_cores: int) -> float:
    """Snoops as a percentage of a broadcast protocol's snoops.

    The TokenB baseline snoops every core's tags on every transaction, so
    its snoop count is ``num_cores * transactions``; this normalisation
    avoids re-running the baseline when only the ratio is needed.
    """
    transactions = stats.total_transactions
    if transactions == 0:
        return 0.0
    return 100.0 * stats.total_snoops / (num_cores * transactions)
