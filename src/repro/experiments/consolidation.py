"""Cloud-consolidation scaling study — beyond the paper's 16-core host.

The paper's future-work section (and ROADMAP north star) asks how the
map-shrink policies behave when a consolidation host grows from one
socket to many: snoop maps cover a shrinking fraction of the machine, so
the filtered-snoop fraction should *rise* with core count while
broadcast traffic explodes. This driver sweeps three host shapes —

* 16 cores — the paper's 4x4 mesh, 4 VMs
* 64 cores — 4 sockets of 4x4 meshes (hierarchical topology), 16 VMs
* 144 cores — 9 sockets of 4x4 meshes, 36 VMs

— under all four snoop policies with credit-scheduler-style vCPU churn,
and reports per cell: final snoop-map size (average vCPUs-per-map), the
fraction of broadcast snoops the filter eliminated, and network traffic
per coherence transaction. Cells ride the campaign machinery
(``repro-sim experiment consolidation --out DIR`` writes per-cell
checkpoints and a manifest whose entries carry ``snoop_map_avg_size``
and ``filtered_snoop_fraction`` columns).

``CONSOLIDATION_SMOKE=1`` shrinks the sweep to the 64-core host with a
tiny budget and the coherence sanitizer asserting on every transaction —
the CI scale-smoke configuration.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.core.filter import SnoopPolicy
from repro.experiments.common import (
    normalized_snoops_percent,
    scaled,
    select_apps,
)
from repro.sim import SimConfig, SimTask, run_matrix

POLICIES = tuple(SnoopPolicy)

# Host shapes: every VM keeps the paper's 4 vCPUs and the host is fully
# consolidated (cores / 4 VMs, no overcommit — the coherence simulator
# does not model it). 64 and 144 cores use the hierarchical topology:
# 4x4-mesh sockets joined by gateway links.
HOSTS: Dict[int, dict] = {
    16: dict(topology="mesh", num_cores=16, mesh_width=4, mesh_height=4,
             num_sockets=1, num_vms=4),
    64: dict(topology="hierarchical", num_cores=64, mesh_width=4, mesh_height=4,
             num_sockets=4, num_vms=16),
    144: dict(topology="hierarchical", num_cores=144, mesh_width=4,
              mesh_height=4, num_sockets=9, num_vms=36),
}

APPS = ("fft", "ocean")


def smoke_mode() -> bool:
    """CI scale-smoke: 64-core host only, tiny budget, sanitizer on."""
    return os.environ.get("CONSOLIDATION_SMOKE", "") not in ("", "0")


def consolidation_config(
    host_cores: int,
    policy: SnoopPolicy,
    seed: int = 42,
    accesses: Optional[int] = None,
    warmup: Optional[int] = None,
) -> SimConfig:
    shape = HOSTS[host_cores]
    smoke = smoke_mode()
    return SimConfig(
        snoop_policy=policy,
        vcpus_per_vm=4,
        # The migration-study cache scaling: small enough that maps grow
        # and counters drain within a tractable access budget.
        l1_size=4 * 1024,
        l2_size=32 * 1024,
        working_set_scale=0.15,
        cycles_per_ms=84_000,
        migration_period_ms=0.5,
        accesses_per_vcpu=(
            accesses if accesses is not None
            else 1_500 if smoke else scaled(12_000, factor=2)
        ),
        warmup_accesses_per_vcpu=(
            warmup if warmup is not None
            else 600 if smoke else scaled(4_000, factor=2)
        ),
        sanitize=smoke,
        seed=seed,
        **shape,
    )


def run(
    apps: Optional[List[str]] = None,
    hosts: Optional[Sequence[int]] = None,
    policies: Sequence[SnoopPolicy] = POLICIES,
    seed: int = 42,
    accesses: Optional[int] = None,
    warmup: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[str, Dict[str, float]]]]:
    """app -> host_cores -> policy-name -> scaling metrics."""
    if hosts is None:
        hosts = (64,) if smoke_mode() else tuple(sorted(HOSTS))
    if apps is None:
        # Smoke: one cell per policy (single app, single host).
        apps = ["fft"] if smoke_mode() else list(APPS)
    apps = select_apps(apps, fast_subset=1)
    tasks = [
        SimTask(
            consolidation_config(host, policy, seed, accesses, warmup), app
        )
        for app in apps
        for host in hosts
        for policy in policies
    ]
    all_stats = iter(run_matrix(tasks, label="consolidation"))
    results: Dict[str, Dict[int, Dict[str, Dict[str, float]]]] = {}
    for app in apps:
        results[app] = {}
        for host in hosts:
            results[app][host] = {}
            for policy in policies:
                stats = next(all_stats)
                transactions = stats.total_transactions or 1
                sizes = stats.snoop_map_sizes
                results[app][host][policy.value] = {
                    "snoop_map_avg_size": (
                        sum(sizes.values()) / len(sizes) if sizes else 0.0
                    ),
                    "snoops_norm_pct": normalized_snoops_percent(stats, host),
                    "filtered_snoop_fraction": (
                        1.0 - stats.total_snoops / (host * transactions)
                    ),
                    "traffic_bytes_per_transaction": (
                        stats.network_bytes / transactions
                    ),
                    "migrations": float(stats.migrations),
                }
    return results


def format_scaling(results) -> str:
    headers = [
        "workload", "cores", "policy", "map size", "snoops %bcast",
        "filtered", "B/transaction",
    ]
    rows = []
    for app, by_host in results.items():
        for host in sorted(by_host):
            for policy in POLICIES:
                cell = by_host[host].get(policy.value)
                if cell is None:
                    continue
                rows.append([
                    app,
                    str(host),
                    policy.value,
                    f"{cell['snoop_map_avg_size']:.1f}",
                    f"{cell['snoops_norm_pct']:.1f}",
                    f"{cell['filtered_snoop_fraction']:.3f}",
                    f"{cell['traffic_bytes_per_transaction']:.0f}",
                ])
    return render_table(
        headers,
        rows,
        title="Consolidation scaling: snoop-map size and filtered snoops "
        "vs host core count",
    )


def main() -> None:
    print(format_scaling(run()))


if __name__ == "__main__":
    main()
