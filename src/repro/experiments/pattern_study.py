"""Workload pattern study — scenario suites x snoop policies.

Sweeps the named scenario suites (:mod:`repro.workloads.suites`) under
all four snoop policies on a migration-enabled 16-core host with content
sharing and hypervisor activity on — the full multi-tenant consolidation
setting Virtual Snooping targets, but with service-style pattern
workloads (web/data-lake/backup/KV mixes) instead of the paper's 13
calibrated applications. Per cell it reports the miss rate, snoops as a
percentage of broadcast, the filtered-snoop fraction, network bytes per
transaction, COW events and migrations — how far the VM-domain filter
holds up when tenant locality ranges from Zipfian front ends to
sequential backup sweeps.

Cells ride the campaign machinery (``repro-sim experiment patterns
--out DIR`` checkpoints each cell and writes a manifest).

``PATTERN_SMOKE=1`` shrinks the sweep to the cloud-mix suite with a tiny
budget and the coherence sanitizer asserting on every transaction — the
CI pattern-differential configuration.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.core.filter import SnoopPolicy
from repro.experiments.common import normalized_snoops_percent, scaled
from repro.sim import SimConfig, SimTask, run_matrix
from repro.workloads.suites import SUITE_NAMES

POLICIES = tuple(SnoopPolicy)

# The app name is required by the task plumbing but pattern configs
# ignore the profile for memory behaviour; fft keeps task keys stable.
APP = "fft"


def smoke_mode() -> bool:
    """CI pattern smoke: cloud-mix only, tiny budget, sanitizer on."""
    return os.environ.get("PATTERN_SMOKE", "") not in ("", "0")


def pattern_config(
    suite: str,
    policy: SnoopPolicy,
    seed: int = 42,
    accesses: Optional[int] = None,
    warmup: Optional[int] = None,
) -> SimConfig:
    smoke = smoke_mode()
    return SimConfig(
        suite=suite,
        snoop_policy=policy,
        content_sharing_enabled=True,
        hypervisor_activity_enabled=True,
        # The migration-study cache scaling, so maps grow and counters
        # drain within a tractable access budget.
        l1_size=4 * 1024,
        l2_size=32 * 1024,
        cycles_per_ms=84_000,
        migration_period_ms=0.5,
        accesses_per_vcpu=(
            accesses if accesses is not None
            else 1_200 if smoke else scaled(12_000, factor=2)
        ),
        warmup_accesses_per_vcpu=(
            warmup if warmup is not None
            else 400 if smoke else scaled(4_000, factor=2)
        ),
        sanitize=smoke,
        seed=seed,
    )


def run(
    suites: Optional[Sequence[str]] = None,
    policies: Sequence[SnoopPolicy] = POLICIES,
    seed: int = 42,
    accesses: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """suite -> policy-name -> metrics."""
    if suites is None:
        suites = ("cloud-mix",) if smoke_mode() else SUITE_NAMES
    tasks = [
        SimTask(pattern_config(suite, policy, seed, accesses, warmup), APP)
        for suite in suites
        for policy in policies
    ]
    all_stats = iter(run_matrix(tasks, label="patterns"))
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for suite in suites:
        results[suite] = {}
        for policy in policies:
            stats = next(all_stats)
            transactions = stats.total_transactions or 1
            cores = 16
            results[suite][policy.value] = {
                "miss_rate": stats.miss_rate(),
                "snoops_norm_pct": normalized_snoops_percent(stats, cores),
                "filtered_snoop_fraction": (
                    1.0 - stats.total_snoops / (cores * transactions)
                ),
                "traffic_bytes_per_transaction": (
                    stats.network_bytes / transactions
                ),
                "cow_events": float(stats.cow_events),
                "migrations": float(stats.migrations),
            }
    return results


def format_patterns(results) -> str:
    headers = [
        "suite", "policy", "miss rate", "snoops %bcast", "filtered",
        "B/transaction", "cow", "migrations",
    ]
    rows: List[List[str]] = []
    for suite in results:
        for policy in POLICIES:
            cell = results[suite].get(policy.value)
            if cell is None:
                continue
            rows.append([
                suite,
                policy.value,
                f"{cell['miss_rate']:.4f}",
                f"{cell['snoops_norm_pct']:.1f}",
                f"{cell['filtered_snoop_fraction']:.3f}",
                f"{cell['traffic_bytes_per_transaction']:.0f}",
                f"{cell['cow_events']:.0f}",
                f"{cell['migrations']:.0f}",
            ])
    return render_table(
        headers,
        rows,
        title="Workload pattern suites: snoop filtering across service "
        "mixes (16 cores, migrations every 0.5 ms, content sharing on)",
    )


def main() -> None:
    print(format_patterns(run()))


if __name__ == "__main__":
    main()
