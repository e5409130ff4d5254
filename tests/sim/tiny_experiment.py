"""A minimal experiment driver used by the CLI campaign tests.

Registered into ``repro.cli.EXPERIMENTS`` under a test-only name so the
``experiment --out/--resume`` wiring can be exercised end-to-end with a
two-cell matrix instead of a full paper figure.
"""

from repro.sim import SimConfig, SimTask, run_matrix


def tiny_tasks():
    config = SimConfig(accesses_per_vcpu=300, warmup_accesses_per_vcpu=150)
    return [SimTask(config, "fft"), SimTask(config, "ocean")]


def main() -> None:
    results = run_matrix(tiny_tasks(), label="tiny")
    for task, stats in zip(tiny_tasks(), results):
        print(f"{task.app}: {stats.total_snoops} snoops")
