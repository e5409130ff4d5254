"""Table V, Table VI and Figure 10 — content-based sharing (Section VI).

Four VMs run the same application with an ideal content-sharing scanner
(every identical page merged, as the paper's "more aggressive than
commercial hypervisors" setup). Measurements:

* **Table V** — share of L1 accesses and of L2 misses falling on
  content-shared pages. Only fft / blackscholes / canneal / specjbb have
  >30 % content-shared misses.
* **Table VI** — for L2 misses on content-shared pages, where a copy
  could have come from: any cache, a cache of the requesting VM, a cache
  of the friend VM, or only memory.
* **Figure 10** — expected snoops of the three read-only optimisations
  (memory-direct / intra-VM / friend-VM) against vsnoop-broadcast,
  normalised to TokenB. memory-direct snoops least (often below the
  ideal 25 %); all three beat broadcasting content-shared requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.tables import render_table
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.experiments.common import (
    normalized_snoops_percent,
    scaled,
    select_apps,
)
from repro.mem.pagetype import PageType
from repro.sim import SimConfig, SimTask, run_matrix
from repro.workloads import CONTENT_APPS

CONTENT_POLICIES = (
    ContentPolicy.BROADCAST,
    ContentPolicy.MEMORY_DIRECT,
    ContentPolicy.INTRA_VM,
    ContentPolicy.FRIEND_VM,
)


def content_config(
    content_policy: ContentPolicy = ContentPolicy.BROADCAST, seed: int = 42
) -> SimConfig:
    return SimConfig(
        snoop_policy=SnoopPolicy.VSNOOP_BASE,
        content_policy=content_policy,
        content_sharing_enabled=True,
        accesses_per_vcpu=scaled(12_000),
        warmup_accesses_per_vcpu=scaled(6_000),
        seed=seed,
    )


def run_sharing_stats(
    apps: Optional[List[str]] = None, seed: int = 42
) -> Dict[str, Dict[str, float]]:
    """Tables V and VI from one vsnoop-broadcast run per app."""
    apps = select_apps(CONTENT_APPS if apps is None else apps)
    tasks = [
        SimTask(content_config(ContentPolicy.BROADCAST, seed), app) for app in apps
    ]
    results: Dict[str, Dict[str, float]] = {}
    for app, stats in zip(apps, run_matrix(tasks, label="tab5_tab6")):
        ro_misses = max(stats.coherence.ro_misses, 1)
        results[app] = {
            # Table V
            "l1_access_pct": 100.0 * stats.l1_access_share(PageType.RO_SHARED),
            "l2_miss_pct": 100.0 * stats.l2_miss_share(PageType.RO_SHARED),
            # Table VI
            "holder_cache_pct": 100.0 * stats.coherence.ro_holder_any_cache / ro_misses,
            "holder_intra_pct": 100.0 * stats.coherence.ro_holder_intra_vm / ro_misses,
            "holder_friend_pct": 100.0 * stats.coherence.ro_holder_friend_vm / ro_misses,
            "holder_memory_pct": 100.0 * stats.coherence.ro_holder_memory_only / ro_misses,
        }
    return results


def run_policy_comparison(
    apps: Optional[List[str]] = None, seed: int = 42
) -> Dict[str, Dict[str, float]]:
    """Figure 10: app -> content-policy name -> normalised snoops (%)."""
    apps = select_apps(CONTENT_APPS if apps is None else apps)
    tasks = [
        SimTask(content_config(policy, seed), app)
        for app in apps
        for policy in CONTENT_POLICIES
    ]
    all_stats = iter(run_matrix(tasks, label="fig10"))
    results: Dict[str, Dict[str, float]] = {}
    for app in apps:
        results[app] = {}
        for policy in CONTENT_POLICIES:
            stats = next(all_stats)
            results[app][policy.value] = normalized_snoops_percent(stats, 16)
    return results


def format_table5(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        (app, f"{r['l1_access_pct']:.2f}", f"{r['l2_miss_pct']:.2f}")
        for app, r in results.items()
    ]
    values_a = [r["l1_access_pct"] for r in results.values()]
    values_m = [r["l2_miss_pct"] for r in results.values()]
    if values_a:
        rows.append(
            ("average", f"{sum(values_a)/len(values_a):.2f}", f"{sum(values_m)/len(values_m):.2f}")
        )
    return render_table(
        ["workload", "L1 access (%)", "L2 miss (%)"],
        rows,
        title="Table V: accesses and misses on content-shared pages",
    )


def format_table6(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        (
            app,
            f"{r['holder_cache_pct']:.1f}",
            f"{r['holder_intra_pct']:.1f}",
            f"{r['holder_friend_pct']:.1f}",
            f"{r['holder_memory_pct']:.1f}",
        )
        for app, r in results.items()
    ]
    return render_table(
        ["workload", "cache: all", "cache: intra-VM", "cache: friend-VM", "memory"],
        rows,
        title="Table VI: potential data holders for content-shared misses (%)",
    )


def format_figure10(results: Dict[str, Dict[str, float]]) -> str:
    headers = ["workload"] + [p.value for p in CONTENT_POLICIES]
    rows = []
    for app, by_policy in results.items():
        rows.append([app] + [f"{by_policy[p.value]:.1f}" for p in CONTENT_POLICIES])
    if results:
        avg_row = ["average"]
        for policy in CONTENT_POLICIES:
            values = [r[policy.value] for r in results.values()]
            avg_row.append(f"{sum(values)/len(values):.1f}")
        rows.append(avg_row)
    return render_table(
        headers,
        rows,
        title="Figure 10: snoops under content-shared policies (% of TokenB)",
    )


def main() -> None:
    sharing = run_sharing_stats()
    print(format_table5(sharing))
    print()
    print(format_table6(sharing))
    print()
    print(format_figure10(run_policy_comparison()))


if __name__ == "__main__":
    main()
