"""Extension — virtual snooping vs RegionScout under migration.

The paper's related-work section argues virtual snooping needs no
per-core filtering tables because VM boundaries are free, while
region-based filters (RegionScout et al.) pay hardware but are oblivious
to virtualization. This experiment quantifies the flip side: RegionScout
keys on *addresses*, so vCPU migration does not hurt it, whereas virtual
snooping's vCPU maps dilate until the residence counters catch up.

For each application the two filters run pinned (no migration) and with
aggressive 0.1 ms migrations, reporting snoops normalised to TokenB.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.tables import render_table
from repro.core.filter import SnoopPolicy
from repro.experiments.common import (
    normalized_snoops_percent,
    scaled,
    select_apps,
)
from repro.sim import SimConfig, SimTask, run_matrix

DEFAULT_APPS = ["fft", "ocean", "radix", "canneal", "specjbb"]


def _config(filter_kind: str, policy: SnoopPolicy, period_ms: Optional[float], seed: int):
    return SimConfig.migration_study(
        filter_kind=filter_kind,
        snoop_policy=policy,
        migration_period_ms=period_ms,
        accesses_per_vcpu=scaled(30_000),
        seed=seed,
    )


def run(apps: Optional[List[str]] = None, seed: int = 42) -> Dict[str, Dict[str, float]]:
    """app -> {vsnoop_pinned, vsnoop_migrating, regionscout_pinned,
    regionscout_migrating} — snoops, % of TokenB."""
    apps = select_apps(DEFAULT_APPS if apps is None else apps)
    variants = (
        ("vsnoop_pinned", "vsnoop", None),
        ("vsnoop_migrating", "vsnoop", 0.1),
        ("regionscout_pinned", "regionscout", None),
        ("regionscout_migrating", "regionscout", 0.1),
    )
    tasks = []
    for app in apps:
        for _, filter_kind, period in variants:
            config = _config(filter_kind, SnoopPolicy.VSNOOP_COUNTER, period, seed)
            tasks.append(SimTask(config, app))
    pairs = iter(zip(tasks, run_matrix(tasks, label="regionscout")))
    results: Dict[str, Dict[str, float]] = {}
    for app in apps:
        row: Dict[str, float] = {}
        for label, _, _ in variants:
            task, stats = next(pairs)
            row[label] = normalized_snoops_percent(stats, task.config.num_cores)
        results[app] = row
    return results


def format_result(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        (
            app,
            f"{r['vsnoop_pinned']:.1f}",
            f"{r['vsnoop_migrating']:.1f}",
            f"{r['regionscout_pinned']:.1f}",
            f"{r['regionscout_migrating']:.1f}",
        )
        for app, r in results.items()
    ]
    return render_table(
        [
            "workload",
            "vsnoop (pinned)",
            "vsnoop (0.1ms)",
            "regionscout (pinned)",
            "regionscout (0.1ms)",
        ],
        rows,
        title=(
            "Extension: virtual snooping vs RegionScout "
            "(snoops, % of TokenB; lower is better)"
        ),
    )


def main() -> None:
    print(format_result(run()))


if __name__ == "__main__":
    main()
