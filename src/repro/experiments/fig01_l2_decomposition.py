"""Figure 1 — L2 miss decomposition: hypervisor (Xen) / dom0 / guest VMs.

The paper measures this with oprofile on a real dual-socket 8-core Xen
host running two VMs of four vCPUs each. We run the coherence simulator
in the same shape (8 cores, 2 VMs x 4 vCPUs) with hypervisor and dom0
activity enabled and attribute every coherence transaction to its
initiator.

Expected shape: hypervisor+dom0 under 5 % for most PARSEC applications
(dedup ~11 %, freqmine ~8 %, raytrace ~7 %), OLTP ~15 %, SPECweb ~19 % —
always below 20 %, so virtual snooping can filter the >80 % remainder.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.tables import render_table
from repro.experiments.common import scaled, select_apps
from repro.sim import SimConfig, SimTask, run_matrix
from repro.workloads import FIG1_APPS
from repro.workloads.trace import Initiator


def fig1_config(app_seed: int = 42) -> SimConfig:
    """The Section III host shape: 8 cores, 2 VMs x 4 vCPUs."""
    return SimConfig(
        num_cores=8,
        mesh_width=4,
        mesh_height=2,
        num_vms=2,
        vcpus_per_vm=4,
        hypervisor_activity_enabled=True,
        content_sharing_enabled=False,
        accesses_per_vcpu=scaled(24_000),
        warmup_accesses_per_vcpu=scaled(6_000),
        seed=app_seed,
    )


def run(apps: List[str] = None) -> Dict[str, Dict[str, float]]:
    """Per-app miss decomposition, in percent of coherence transactions."""
    apps = select_apps(FIG1_APPS if apps is None else apps)
    tasks = [SimTask(fig1_config(), app) for app in apps]
    results: Dict[str, Dict[str, float]] = {}
    for app, stats in zip(apps, run_matrix(tasks, label="fig1")):
        shares = stats.miss_decomposition_by_initiator()
        results[app] = {
            "guest": 100.0 * shares[Initiator.GUEST],
            "dom0": 100.0 * shares[Initiator.DOM0],
            "xen": 100.0 * shares[Initiator.HYPERVISOR],
        }
    return results


def format_result(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        (app, f"{r['guest']:.1f}", f"{r['dom0']:.1f}", f"{r['xen']:.1f}",
         f"{r['dom0'] + r['xen']:.1f}")
        for app, r in results.items()
    ]
    return render_table(
        ["workload", "guest %", "dom0 %", "xen %", "dom0+xen %"],
        rows,
        title="Figure 1: L2 miss decomposition by initiator",
    )


def main() -> None:
    print(format_result(run()))


if __name__ == "__main__":
    main()
