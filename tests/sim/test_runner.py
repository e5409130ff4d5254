"""The parallel experiment runner: job resolution, ordering, determinism.

The load-bearing guarantee is bit-identical statistics at any job count:
a worker process rebuilds its system from the pickled config exactly as
the serial path does, so every RNG stream — and therefore every counter
— must come out the same. The determinism test compares a serial run
against ``jobs=4`` field by field across the whole SimStats surface.
"""

import dataclasses
import os

import pytest

from repro.core.filter import SnoopPolicy
from repro.sim import (
    SimConfig,
    SimTask,
    default_jobs,
    parallel_map,
    run_matrix,
    run_simulation_task,
    set_default_jobs,
)
from repro.sim.runner import JOBS_ENV_VAR, parse_jobs


@pytest.fixture(autouse=True)
def _reset_default_jobs():
    yield
    set_default_jobs(None)


def small_config(**kw):
    defaults = dict(accesses_per_vcpu=800, warmup_accesses_per_vcpu=400)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestParseJobs:
    def test_unset_means_serial(self):
        assert parse_jobs(None) == 1
        assert parse_jobs("") == 1

    def test_auto_means_cpu_count(self):
        assert parse_jobs("auto") == (os.cpu_count() or 1)
        assert parse_jobs("0") == (os.cpu_count() or 1)

    def test_explicit_count(self):
        assert parse_jobs("3") == 3
        assert parse_jobs(" 2 ") == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            parse_jobs("-1")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_jobs("many")


class TestDefaultJobs:
    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert default_jobs() == 5

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        set_default_jobs(2)
        assert default_jobs() == 2

    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() == 1


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_square, range(6), jobs=1) == [0, 1, 4, 9, 16, 25]

    def test_parallel_preserves_order(self):
        assert parallel_map(_square, range(6), jobs=3) == [0, 1, 4, 9, 16, 25]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_jobs_capped_to_items(self):
        # More jobs than items must not fail (jobs are capped to the items).
        assert parallel_map(_square, [7], jobs=8) == [49]


def stats_fields(stats):
    """Every SimStats field as plain comparable data (field by field)."""
    out = {}
    for field in dataclasses.fields(stats):
        out[field.name] = getattr(stats, field.name)
    return out


class TestDeterminism:
    def test_serial_equals_jobs4_field_by_field(self):
        tasks = [
            SimTask(small_config(snoop_policy=SnoopPolicy.VSNOOP_BASE, seed=3), "fft"),
            SimTask(small_config(snoop_policy=SnoopPolicy.BROADCAST, seed=3), "fft"),
            SimTask(
                small_config(
                    snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
                    migration_period_ms=0.5,
                    seed=9,
                ),
                "ocean",
            ),
        ]
        serial = run_matrix(tasks, jobs=1)
        parallel = run_matrix(tasks, jobs=4)
        assert len(serial) == len(parallel) == len(tasks)
        for task, s_stats, p_stats in zip(tasks, serial, parallel):
            s_fields = stats_fields(s_stats)
            p_fields = stats_fields(p_stats)
            for name, s_value in s_fields.items():
                assert p_fields[name] == s_value, (
                    f"{task.app}/{task.config.snoop_policy}: field {name!r} "
                    f"differs between serial and parallel"
                )
            # The nested coherence counters, field by field as well.
            for field in dataclasses.fields(s_stats.coherence):
                assert getattr(p_stats.coherence, field.name) == getattr(
                    s_stats.coherence, field.name
                ), f"coherence field {field.name!r} differs"

    def test_worker_matches_inline_run(self):
        task = SimTask(small_config(seed=5), "radix")
        inline = run_simulation_task(task)
        pooled = run_matrix([task], jobs=2)[0]
        assert stats_fields(inline) == stats_fields(pooled)
