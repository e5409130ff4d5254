"""Tests of the benchmark harness: ``pytest bench/ -q``.

The harness runs at ``--smoke`` budgets here, so cells are checked
against reference-kernel runs rather than ``bench/expected.json``.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import calibrate
import cells
import child
import run
import spans
from repro.sim.system import build_system
from repro.workloads import get_profile

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {
        (workload["name"], trace): _result(workload["name"], trace)
        for workload in SPEC["workloads"]
        for trace in (0, 1)
    }


def test_every_named_workload_and_metric_is_emitted(results):
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        named = SPEC["per_layer" if trace else "end_to_end"]
        emitted = {name: row["unit"] for name, row in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in named}, workload
        if not trace:
            assert all(row["value"] > 0 for row in result["metrics"].values())


def test_self_times_partition_the_measured_phase(results):
    for (workload, trace), result in results.items():
        if not trace:
            continue
        rows = {name: row["value"] for name, row in result["metrics"].items()}
        self_times = [rows[f"{layer}_s"] for layer in spans.LAYERS]
        self_times.append(rows["sim.loop_self_s"])
        assert min(self_times) >= 0, workload
        assert sum(self_times) <= rows["sim.measure_s"] * (1 + 1e-9), workload


def _traced_rows(cell, busy_wait_ns=None) -> dict:
    tracer = spans.SpanTracer(busy_wait_ns)
    with spans.module_seams(tracer):
        cell_result = child.run_cell(cell, "traced", tracer)
    # Unscaled: only sim.reference_kaccess_per_s reads the calibration.
    result = {"cells": [cell_result], "calibration_s": [calibrate.REFERENCE_S]}
    return {
        name: row["value"]
        for name, row in run.layer_metrics(result, result, result).items()
    }


def test_injected_plan_slowdown_shows_in_its_own_row():
    """A busy-wait of ~10% of the measured phase inside the core.plan
    wrapper moves core.plan_s by that much and no other layer row."""
    # A hit-dominated cell: few plan calls, so each one spins for many
    # microseconds and the spin's fixed per-call disturbance of the loop
    # around it stays small against the injected total.
    cell = cells.pinned_hits(seed=5, smoke=False)[0]
    cell = cell._replace(
        config=replace(cell.config, accesses_per_vcpu=16_000, warmup_accesses_per_vcpu=2_000)
    )
    first = _traced_rows(cell)
    spin_ns = int(0.10 * first["sim.measure_s"] * 1e9 / first["core.plan_calls"])
    injected_s = spin_ns * first["core.plan_calls"] / 1e9
    # Host noise only ever adds time, so each arm's row is its minimum
    # over alternating repeats.
    runs = {"base": [first], "slow": []}
    for _ in range(5):
        runs["slow"].append(_traced_rows(cell, {"core.plan": spin_ns}))
        runs["base"].append(_traced_rows(cell))
    base, slow = (
        {name: min(rows[name] for rows in runs[arm]) for name in first}
        for arm in ("base", "slow")
    )
    grew = {
        name: slow[name] - base[name]
        for name in [f"{layer}_s" for layer in spans.LAYERS] + ["sim.loop_self_s"]
    }
    assert 0.9 * injected_s <= grew.pop("core.plan_s") <= 1.5 * injected_s
    for name, delta in grew.items():
        assert delta < 0.5 * injected_s, (name, delta, injected_s)


def test_missing_seams_fail_loudly(monkeypatch):
    cell = cells.miss_web(seed=5, smoke=True)[0]
    system = build_system(cell.config, get_profile(cell.app))
    system.protocol = object()
    with pytest.raises(spans.SeamMissing, match="coherence.execute"):
        spans.install(system, spans.SpanTracer())
    import repro.sim.kernel

    monkeypatch.delattr(repro.sim.kernel, "_encode")
    with pytest.raises(spans.SeamMissing, match="workloads.word_decode"):
        with spans.module_seams(spans.SpanTracer()):
            pass


def test_digest_mismatch_and_raising_cells_count_as_failed():
    round_ = {"cells": [{"name": "a", "digest": "x"}, {"name": "b", "error": "E"}]}
    assert run.check([round_], {"a": "y", "b": "z"}, "expected") == (2, 2)
    assert run.check([round_], {"a": "x", "b": "z"}, "expected") == (2, 1)
