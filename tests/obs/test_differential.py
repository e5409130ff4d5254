"""Observers must not perturb the simulation they observe.

The same config is run four ways — serial, through two-worker
``run_matrix``, with the tracer attached, and with the metrics
recorder attached — and the resulting ``SimStats`` are compared **bit
for bit** (canonical JSON encoding). This is the ``--sanitize``
guarantee extended to the whole observability layer: with tracing and
metrics off the hot path is untouched, and with them on they only read.
The observers' own output is kernel-independent too: ``kernel="auto"``
(the batched kernel) writes the reference loop's event file byte for
byte and records the same metrics series.
"""

import dataclasses
import json

from repro.core.filter import SnoopPolicy
from repro.sim import SimConfig, SimTask
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.runner import run_matrix, run_simulation_task
from repro.sim.system import build_system
from repro.workloads.profiles import get_profile

BASE = SimConfig.migration_study(
    snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
    migration_period_ms=0.05,
    accesses_per_vcpu=6_000,
    warmup_accesses_per_vcpu=500,
)


def canonical(stats, drop_metrics=False) -> str:
    data = stats.to_dict()
    if drop_metrics:
        data.pop("metrics", None)
    return json.dumps(data, sort_keys=True)


def test_serial_parallel_traced_and_metered_runs_are_bit_identical(tmp_path, monkeypatch):
    tasks = [SimTask(BASE, "ocean"), SimTask(BASE, "fft")]

    serial = [run_simulation_task(t) for t in tasks]
    # Store off, so the pooled cells simulate in workers instead of
    # being served the serial results.
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_STORE", "off")
        pooled = run_matrix(tasks, jobs=2)
    traced = [
        run_simulation_task(
            SimTask(
                dataclasses.replace(t.config, trace=str(tmp_path / f"{t.app}.evt")),
                t.app,
            )
        )
        for t in tasks
    ]
    metered = [
        run_simulation_task(
            SimTask(dataclasses.replace(t.config, metrics_sample_every=20_000), t.app)
        )
        for t in tasks
    ]

    for base, pool, trace, meter in zip(serial, pooled, traced, metered):
        reference = canonical(base)
        assert canonical(pool) == reference
        assert canonical(trace) == reference
        # The metered run adds only the series; everything else is identical.
        assert meter.metrics is not None
        assert canonical(meter, drop_metrics=True) == reference


def test_both_observers_together_change_nothing(tmp_path):
    task = SimTask(BASE, "ocean")
    reference = canonical(run_simulation_task(task))
    both = run_simulation_task(
        SimTask(
            dataclasses.replace(
                BASE,
                trace=str(tmp_path / "both.jsonl"),
                trace_format="jsonl",
                metrics_sample_every=20_000,
            ),
            "ocean",
        )
    )
    assert canonical(both, drop_metrics=True) == reference


def test_auto_kernel_writes_the_reference_trace_and_metrics(tmp_path, monkeypatch):
    # Built directly rather than through run_simulation_task: a result
    # store hit would skip the run and write no event file.
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    runs = {}
    for kernel in ("reference", "auto"):
        path = tmp_path / f"{kernel}.evt"
        config = dataclasses.replace(
            BASE,
            accesses_per_vcpu=3_000,
            kernel=kernel,
            trace=str(path),
            metrics_sample_every=20_000,
        )
        system = build_system(config, get_profile("ocean"))
        engine = engine_for(system)
        engine.run()
        runs[kernel] = (engine, path.read_bytes(), system.stats)
    reference, auto = runs["reference"], runs["auto"]
    assert type(auto[0]) is BatchedEngine
    assert type(reference[0]) is not BatchedEngine
    assert reference[2].migrations > 0 and len(reference[2].metrics) > 1
    assert auto[1] == reference[1]
    assert auto[2].metrics == reference[2].metrics
    assert canonical(auto[2]) == canonical(reference[2])
