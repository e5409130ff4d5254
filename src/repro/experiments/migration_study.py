"""Figures 7, 8 and 9 — the VM relocation study (Section V-C).

Every ``period`` ms two vCPUs of different VMs exchange physical cores
(the paper's approximation of credit-scheduler churn). Three virtual
snooping variants are compared, normalised to broadcasting TokenB:

* ``vsnoop-base`` — never removes old cores from vCPU maps; degrades
  toward broadcast as maps grow (badly at 0.5/0.1 ms).
* ``counter`` — per-VM residence counters remove a core once drained;
  stays near the ideal 25 % at 5/2.5 ms and still filters at 0.1 ms.
* ``counter-threshold`` — speculative removal below a 10-line threshold
  with TokenB-retry fallback; only slightly better than ``counter``.

Figure 9 is the CDF of the old-core removal period measured in the
``counter`` runs: most removals complete within ~10 ms; blackscholes'
counters never reach zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.core.filter import SnoopPolicy
from repro.experiments.common import (
    normalized_snoops_percent,
    scaled,
    select_apps,
)
from repro.sim import SimConfig, SimTask, run_matrix
from repro.workloads import COHERENCE_APPS

FIG7_PERIODS_MS = (5.0, 2.5)
FIG8_PERIODS_MS = (0.5, 0.1)
POLICIES = (
    SnoopPolicy.VSNOOP_BASE,
    SnoopPolicy.VSNOOP_COUNTER,
    SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
)


def migration_config(
    policy: SnoopPolicy, period_ms: float, seed: int = 42
) -> SimConfig:
    return SimConfig.migration_study(
        snoop_policy=policy,
        migration_period_ms=period_ms,
        # Fast mode shrinks these only 2x (not the default 4x): the
        # counter mechanism needs enough measured cycles to drain old
        # cores mid-run, or the Figure 7/8 policy gaps collapse to zero.
        accesses_per_vcpu=scaled(50_000, factor=2),
        warmup_accesses_per_vcpu=scaled(8_000, factor=2),
        seed=seed,
    )


def run(
    apps: Optional[List[str]] = None,
    periods_ms: Sequence[float] = FIG7_PERIODS_MS + FIG8_PERIODS_MS,
    policies: Sequence[SnoopPolicy] = POLICIES,
    seed: int = 42,
) -> Dict[str, Dict[float, Dict[str, Dict[str, object]]]]:
    """app -> period -> policy-name -> {snoops_norm_pct, removal_periods_ms}."""
    apps = select_apps(COHERENCE_APPS if apps is None else apps)
    tasks = [
        SimTask(migration_config(policy, period, seed), app)
        for app in apps
        for period in periods_ms
        for policy in policies
    ]
    all_stats = iter(run_matrix(tasks, label="fig7_8_9"))
    results: Dict[str, Dict[float, Dict[str, Dict[str, object]]]] = {}
    for app in apps:
        results[app] = {}
        for period in periods_ms:
            results[app][period] = {}
            for policy in policies:
                config = migration_config(policy, period, seed)
                stats = next(all_stats)
                removal_ms = [
                    cycles / config.cycles_per_ms
                    for cycles in stats.removal_periods_cycles
                ]
                results[app][period][policy.value] = {
                    "snoops_norm_pct": normalized_snoops_percent(
                        stats, config.num_cores
                    ),
                    "removal_periods_ms": removal_ms,
                    "migrations": stats.migrations,
                }
    return results


def format_figures(results, periods_ms: Sequence[float], title: str) -> str:
    headers = ["workload", "period"] + [p.value for p in POLICIES]
    rows = []
    for app, by_period in results.items():
        for period in periods_ms:
            if period not in by_period:
                continue
            row = [app, f"{period}ms"]
            for policy in POLICIES:
                cell = by_period[period].get(policy.value)
                row.append("-" if cell is None else f"{cell['snoops_norm_pct']:.1f}")
            rows.append(row)
    return render_table(
        headers, rows, title=f"{title} (snoops, % of TokenB; ideal = 25)"
    )


def removal_cdf(
    results, period_ms: float = 5.0, policy: SnoopPolicy = SnoopPolicy.VSNOOP_COUNTER
) -> Dict[str, List[float]]:
    """Figure 9 input: app -> sorted removal periods (ms) at ``period_ms``."""
    cdf: Dict[str, List[float]] = {}
    for app, by_period in results.items():
        cell = by_period.get(period_ms, {}).get(policy.value)
        if cell is not None:
            cdf[app] = sorted(cell["removal_periods_ms"])
    return cdf


def format_figure9(cdf: Dict[str, List[float]], markers=(5.0, 10.0, 20.0, 30.0)) -> str:
    headers = ["workload", "removals"] + [f"<= {m:.0f}ms" for m in markers]
    rows = []
    for app, periods in cdf.items():
        total = len(periods)
        row = [app, str(total)]
        for marker in markers:
            if total == 0:
                row.append("-")
            else:
                row.append(f"{100.0 * sum(1 for p in periods if p <= marker) / total:.0f}%")
        rows.append(row)
    return render_table(
        headers,
        rows,
        title="Figure 9: CDF of old-core removal period after relocation "
        "(counter, 5ms migrations)",
    )


def main() -> None:
    results = run()
    print(format_figures(results, FIG7_PERIODS_MS, "Figure 7: 5/2.5ms migrations"))
    print()
    print(format_figures(results, FIG8_PERIODS_MS, "Figure 8: 0.5/0.1ms migrations"))
    print()
    print(format_figure9(removal_cdf(results)))


if __name__ == "__main__":
    main()
