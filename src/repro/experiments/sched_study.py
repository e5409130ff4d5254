"""Figure 3 and Table I — the scheduler study (Section III).

Runs the credit-scheduler simulation for each PARSEC application on an
8-core host, undercommitted (2 VMs x 4 vCPUs) and overcommitted (4 VMs x
4 vCPUs), under the two policies the paper compares:

* ``no migration`` — one-to-one vCPU pinning,
* ``full migration`` — the credit scheduler with global load balancing.

Expected shapes: pinning is as good or better when undercommitted
(Figure 3a), migration wins clearly when overcommitted (Figure 3b), and
relocation periods (Table I) are much shorter overcommitted, spanning
milliseconds (pipeline apps like dedup/vips) to seconds (blackscholes,
swaptions, freqmine).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, NamedTuple, Optional

from repro.analysis.tables import render_table
from repro.experiments.common import fast_mode, select_apps
from repro.hypervisor.scheduler import (
    CreditSchedulerSim,
    SchedulerConfig,
    SchedulerResult,
)
from repro.sim import run_matrix
from repro.workloads import PARSEC_APPS, get_profile

UNDERCOMMITTED_VMS = 2
OVERCOMMITTED_VMS = 4


class SchedTask(NamedTuple):
    """One scheduler cell: ``app`` in ``num_vms`` VMs under ``config``.

    A campaign-runner task like :class:`~repro.sim.runner.SimTask`: its
    fields are its identity, so the runner keys, stores and resumes it.
    ``work_scale`` multiplies the profile's work per vCPU.
    """

    config: SchedulerConfig
    app: str
    num_vms: int
    work_scale: float = 1.0

    result_type = SchedulerResult

    def describe(self) -> dict:
        """The cell's manifest columns."""
        return {
            "app": self.app,
            "policy": self.config.policy,
            "num_vms": self.num_vms,
            "work_scale": self.work_scale,
            "seed": self.config.seed,
        }


def run_task(task: SchedTask) -> SchedulerResult:
    """Simulate one scheduler cell (module-level, so workers can run it)."""
    profile = get_profile(task.app)
    profile = replace(profile, work_ms_per_vcpu=profile.work_ms_per_vcpu * task.work_scale)
    return CreditSchedulerSim(task.config, profile, num_vms=task.num_vms).run()


def run(apps: Optional[List[str]] = None, seed: int = 7) -> Dict[str, Dict[str, Dict[str, float]]]:
    """app -> {"under"|"over"} -> metrics.

    Metrics: ``pinned_ms``, ``credit_ms``, ``pinned_norm_pct`` (pinned
    wall time normalised to credit = 100), ``relocation_period_ms`` (of
    the credit run), ``migrations``.
    """
    apps = select_apps(PARSEC_APPS if apps is None else apps)
    commitments = (("under", UNDERCOMMITTED_VMS), ("over", OVERCOMMITTED_VMS))
    work_scale = 0.25 if fast_mode() else 1.0
    tasks = [
        SchedTask(SchedulerConfig(policy=policy, seed=seed), app, num_vms, work_scale)
        for app in apps
        for _, num_vms in commitments
        for policy in ("pinned", "credit")
    ]
    outcomes = iter(run_matrix(tasks, label="fig3_tab1", task_fn=run_task))
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for app in apps:
        results[app] = {}
        for label, _ in commitments:
            pinned = next(outcomes)
            credit = next(outcomes)
            results[app][label] = {
                "pinned_ms": pinned.wall_ms,
                "credit_ms": credit.wall_ms,
                "pinned_norm_pct": 100.0 * pinned.wall_ms / credit.wall_ms,
                "relocation_period_ms": credit.relocation_period_ms,
                "migrations": float(credit.guest_migrations),
            }
    return results


def format_figure3(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    rows = [
        (
            app,
            f"{r['under']['pinned_norm_pct']:.0f}",
            f"{r['over']['pinned_norm_pct']:.0f}",
        )
        for app, r in results.items()
    ]
    return render_table(
        ["workload", "undercommitted (a)", "overcommitted (b)"],
        rows,
        title=(
            "Figure 3: 'no migration' execution time, normalised to "
            "'full migration' = 100"
        ),
    )


def format_table1(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    rows = []
    for app, r in results.items():
        rows.append(
            (
                app,
                _fmt_period(r["under"]["relocation_period_ms"]),
                _fmt_period(r["over"]["relocation_period_ms"]),
            )
        )
    under = [r["under"]["relocation_period_ms"] for r in results.values()]
    over = [r["over"]["relocation_period_ms"] for r in results.values()]
    finite_under = [p for p in under if p != float("inf")]
    finite_over = [p for p in over if p != float("inf")]
    if finite_under and finite_over:
        rows.append(
            (
                "average",
                f"{sum(finite_under) / len(finite_under):.1f}",
                f"{sum(finite_over) / len(finite_over):.1f}",
            )
        )
    return render_table(
        ["workload", "undercommit. (ms)", "overcommit. (ms)"],
        rows,
        title="Table I: average VM relocation periods",
    )


def _fmt_period(period: float) -> str:
    return "inf" if period == float("inf") else f"{period:.1f}"


def main() -> None:
    results = run()
    print(format_figure3(results))
    print()
    print(format_table1(results))


if __name__ == "__main__":
    main()
