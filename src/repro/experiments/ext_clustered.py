"""Extension — clustered scheduling (the paper's stated future work).

Section III ends: "It is also possible to restrict the physical cores a
VM can run to a subset of the cores in a system ... It will limit the
size of the snoop domain of a VM, while it can reduce the load unbalance
caused by the strict scheduling in the one-to-one pinning. Exploring
such scheduling policies will be our future work."

This driver explores exactly that policy: each VM may run on a window of
``cluster_factor x vcpus_per_vm`` cores. On an overcommitted host it
recovers almost all of full migration's throughput while bounding the
VM's snoop domain to the window — pinning's filtering benefit at a
fraction of its utilisation cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.tables import render_table
from repro.experiments.common import select_apps
from repro.experiments.sched_study import OVERCOMMITTED_VMS, SchedTask, run_task
from repro.hypervisor.scheduler import SchedulerConfig
from repro.sim import run_matrix
from repro.workloads import PARSEC_APPS

POLICIES = ("pinned", "clustered", "credit")


def run(
    apps: Optional[List[str]] = None,
    cluster_factor: float = 1.5,
    num_vms: int = OVERCOMMITTED_VMS,
    seed: int = 7,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """app -> policy -> {wall_ms, migrations, domain_bound_cores}."""
    apps = select_apps(PARSEC_APPS if apps is None else apps)
    tasks = [
        SchedTask(
            SchedulerConfig(policy=policy, cluster_factor=cluster_factor, seed=seed),
            app,
            num_vms,
        )
        for app in apps
        for policy in POLICIES
    ]
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for task, outcome in zip(tasks, run_matrix(tasks, label="clustered", task_fn=run_task)):
        config = task.config
        if config.policy == "pinned":
            bound = 4  # one core per vCPU
        elif config.policy == "clustered":
            bound = min(config.num_cores, round(4 * cluster_factor))
        else:
            bound = config.num_cores
        results.setdefault(task.app, {})[config.policy] = {
            "wall_ms": outcome.wall_ms,
            "migrations": float(outcome.guest_migrations),
            "domain_bound_cores": float(bound),
        }
    return results


def format_result(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    rows = []
    for app, by_policy in results.items():
        credit_ms = by_policy["credit"]["wall_ms"]
        rows.append(
            (
                app,
                f"{100 * by_policy['pinned']['wall_ms'] / credit_ms:.0f}",
                f"{100 * by_policy['clustered']['wall_ms'] / credit_ms:.0f}",
                "100",
                f"{by_policy['pinned']['domain_bound_cores']:.0f}",
                f"{by_policy['clustered']['domain_bound_cores']:.0f}",
                f"{by_policy['credit']['domain_bound_cores']:.0f}",
            )
        )
    return render_table(
        [
            "workload", "pinned %", "clustered %", "credit %",
            "domain<=(pin)", "domain<=(clust)", "domain<=(credit)",
        ],
        rows,
        title=(
            "Extension: clustered scheduling, overcommitted host "
            "(execution time normalised to credit = 100; "
            "snoop-domain bound in cores)"
        ),
    )


def main() -> None:
    print(format_result(run()))


if __name__ == "__main__":
    main()
