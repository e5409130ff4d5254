"""Benchmark (ablation): sensitivity to the counter-threshold value.

The paper fixes the speculative removal threshold at 10 lines "set to be
low, not to remove cores from the vCPU maps prematurely" and observes
only marginal gains over the plain counter. This ablation sweeps the
threshold under fast migrations to show the trade-off the choice makes:
higher thresholds remove cores earlier (fewer snoops) but mispredict
more often, paying TokenB retries and persistent-request escalations.
"""

import pytest

from conftest import emit
from repro.analysis import render_table
from repro.core.filter import SnoopPolicy
from repro.experiments.common import fast_mode, normalized_snoops_percent, scaled
from repro.sim import SimConfig, SimTask, run_simulation_task

THRESHOLDS = (1, 5, 10, 25, 50)
APP = "fft"
PERIOD_MS = 0.1


def sweep():
    rows = {}
    for threshold in THRESHOLDS:
        config = SimConfig.migration_study(
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
            migration_period_ms=PERIOD_MS,
            counter_threshold=threshold,
            accesses_per_vcpu=scaled(40_000),
        )
        stats = run_simulation_task(SimTask(config, APP))
        rows[threshold] = {
            "snoops_norm_pct": normalized_snoops_percent(stats, config.num_cores),
            "retries": stats.coherence.retries,
            "persistent": stats.coherence.persistent_requests,
        }
    return rows


def test_ablation_counter_threshold(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(render_table(
        ["threshold", "snoops (% TokenB)", "retries", "persistent reqs"],
        [
            (t, f"{r['snoops_norm_pct']:.1f}", r["retries"], r["persistent"])
            for t, r in rows.items()
        ],
        title=f"Ablation: counter-threshold sweep ({APP}, {PERIOD_MS}ms migrations)",
    ))
    # Threshold 1 degenerates to the plain counter: zero speculation, so
    # (nearly) zero retries.
    assert rows[1]["retries"] <= rows[50]["retries"]
    if not fast_mode():
        # Aggressive thresholds must actually speculate.
        assert rows[50]["retries"] > 0
