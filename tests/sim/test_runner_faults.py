"""Fault tolerance, checkpoint/resume and manifests of the runner.

The guarantees under test:

* one crashing cell never discards the others, and the failure
  identifies the task (index, app) — identically at any job count;
* a worker process dying abruptly, or exceeding the task timeout, is
  recorded as that cell's failure while its siblings complete;
* a failure travels back as traceback text, so an exception that
  cannot be unpickled is still reported;
* Ctrl-C mid-campaign keeps the completed cells (saved when a
  campaign directory is active) and the resumed matrix is
  bit-identical — full ``SimStats`` dict diff — to an uninterrupted
  serial run;
* the manifest records tasks, seeds, job count, wall-clock and failures,
  and each simulated cell's report (bulk-seam summary, warm/measure
  split) identically at any job count.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.sim import (
    CampaignInterrupted,
    CampaignSettings,
    SimConfig,
    SimTask,
    TaskError,
    campaign_settings,
    run_matrix,
    run_matrix_detailed,
    set_campaign,
    task_key,
)
from repro.sim.runner import CAMPAIGN_ENV_VAR, run_simulation_task


def small_config(**kw):
    defaults = dict(accesses_per_vcpu=400, warmup_accesses_per_vcpu=200)
    defaults.update(kw)
    return SimConfig(**defaults)


def seed_tasks(*seeds, app="fft"):
    return [SimTask(small_config(seed=seed), app) for seed in seeds]


# Module-level task functions so the fork/spawn workers can import them.


def _misbehaving(task):
    if task.app == "crash":
        raise RuntimeError("injected crash")
    if task.app == "die":
        os._exit(17)
    if task.app == "sleep":
        time.sleep(60)
    return run_simulation_task(task)


def _interrupt_on_seed(task):
    if task.config.seed == 3:
        raise KeyboardInterrupt
    return run_simulation_task(task)


_FLAKY_CALLS = {"count": 0}


def _flaky(task):
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] == 1:
        raise RuntimeError("transient failure")
    return run_simulation_task(task)


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: its ``args`` hold one value."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _raise_two_arg(task):
    if task.config.seed == 2:
        raise _TwoArgError(task.config.seed, "b")
    return task.config.seed


class TestCrashIsolation:
    def test_injected_crash_keeps_other_cells(self):
        tasks = [
            SimTask(small_config(seed=1), "fft"),
            SimTask(small_config(seed=2), "crash"),
            SimTask(small_config(seed=3), "fft"),
        ]
        results = run_matrix_detailed(tasks, jobs=3, task_fn=_misbehaving)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "injected crash" in results[1].error
        # The surviving cells match a clean serial run bit-for-bit.
        clean = run_matrix([tasks[0], tasks[2]], jobs=1)
        assert results[0].stats.to_dict() == clean[0].to_dict()
        assert results[2].stats.to_dict() == clean[1].to_dict()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_run_matrix_identifies_failed_task(self, jobs):
        tasks = [
            SimTask(small_config(seed=1), "fft"),
            SimTask(small_config(seed=2), "no-such-app"),
            SimTask(small_config(seed=3), "fft"),
        ]
        with pytest.raises(TaskError) as excinfo:
            run_matrix(tasks, jobs=jobs)
        assert excinfo.value.index == 1
        assert excinfo.value.task.app == "no-such-app"
        assert "no-such-app" in str(excinfo.value)

    def test_worker_death_recorded_with_exit_code(self):
        tasks = [SimTask(small_config(seed=1), "fft"), SimTask(small_config(seed=2), "die")]
        results = run_matrix_detailed(tasks, jobs=2, task_fn=_misbehaving)
        assert results[0].ok
        assert "exit code 17" in results[1].error

    def test_task_timeout_terminates_only_the_hung_cell(self):
        tasks = [SimTask(small_config(seed=1), "fft"), SimTask(small_config(seed=2), "sleep")]
        start = time.monotonic()
        results = run_matrix_detailed(
            tasks, jobs=2, task_fn=_misbehaving, task_timeout=1.5
        )
        assert time.monotonic() - start < 30
        assert results[0].ok
        assert "timed out" in results[1].error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unpicklable_exception_reported_as_text(self, jobs):
        results = run_matrix_detailed(seed_tasks(1, 2, 3), jobs=jobs, task_fn=_raise_two_arg)
        assert [r.stats for r in results] == [1, None, 3]
        assert "_TwoArgError: 2/b" in results[1].error

    def test_retries_recover_a_transient_failure(self):
        _FLAKY_CALLS["count"] = 0
        tasks = seed_tasks(1)
        results = run_matrix_detailed(tasks, jobs=1, task_fn=_flaky, retries=1)
        assert results[0].ok
        assert results[0].attempts == 2


class TestCheckpointResume:
    def test_interrupt_persists_partials_and_resume_is_bit_identical(self, tmp_path):
        tasks = seed_tasks(1, 2, 3, 4)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_matrix_detailed(
                tasks, jobs=1, checkpoint_dir=str(tmp_path),
                task_fn=_interrupt_on_seed, label="ki",
            )
        partial = excinfo.value.results
        assert sum(1 for r in partial if r.ok) == 2
        assert all("interrupted" in r.error for r in partial if not r.ok)
        manifest = json.loads((tmp_path / "manifest-ki.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["totals"]["ok"] == 2

    def test_resume_runs_only_missing_cells(self, tmp_path, monkeypatch):
        # Store off: this test pins down *checkpoint* semantics, and a
        # cell another test already pushed into the session store would
        # otherwise surface here as from_store instead of a fresh run.
        monkeypatch.setenv("REPRO_STORE", "off")
        tasks = seed_tasks(1, 2, 3, 4)
        with pytest.raises(CampaignInterrupted):
            run_matrix_detailed(
                tasks, jobs=1, checkpoint_dir=str(tmp_path),
                task_fn=_interrupt_on_seed, label="ki",
            )
        resumed = run_matrix_detailed(
            tasks, jobs=1, checkpoint_dir=str(tmp_path), label="ki"
        )
        assert [r.from_checkpoint for r in resumed] == [True, True, False, False]
        fresh = run_matrix(tasks, jobs=1)
        resumed_dicts = [r.stats.to_dict() for r in resumed]
        fresh_dicts = [s.to_dict() for s in fresh]
        assert resumed_dicts == fresh_dicts
        manifest = json.loads((tmp_path / "manifest-ki.json").read_text())
        assert manifest["interrupted"] is False
        assert manifest["totals"] == {
            "tasks": 4, "ok": 4, "failed": 0, "from_checkpoint": 2,
            "from_store": 0,
            "wall_seconds": manifest["totals"]["wall_seconds"],
        }

    def test_failed_cell_is_not_checkpointed_and_reruns(self, tmp_path):
        tasks = [SimTask(small_config(seed=1), "fft"), SimTask(small_config(seed=2), "crash")]
        first = run_matrix_detailed(
            tasks, jobs=1, checkpoint_dir=str(tmp_path), task_fn=_misbehaving
        )
        assert first[0].ok and not first[1].ok
        second = run_matrix_detailed(
            tasks, jobs=1, checkpoint_dir=str(tmp_path), task_fn=_misbehaving
        )
        assert second[0].from_checkpoint
        assert not second[1].from_checkpoint and not second[1].ok

    def test_corrupt_checkpoint_treated_as_missing(self, tmp_path):
        tasks = seed_tasks(1)
        run_matrix_detailed(tasks, jobs=1, checkpoint_dir=str(tmp_path))
        cell = tmp_path / "results" / f"{task_key(tasks[0])}.json"
        cell.write_text("{ truncated")
        results = run_matrix_detailed(tasks, jobs=1, checkpoint_dir=str(tmp_path))
        assert results[0].ok and not results[0].from_checkpoint

    def test_parallel_resume_matches_serial(self, tmp_path, monkeypatch):
        tasks = seed_tasks(1, 2, 3)
        run_matrix_detailed(tasks[:2], jobs=2, checkpoint_dir=str(tmp_path))
        resumed = run_matrix(tasks, jobs=2, checkpoint_dir=str(tmp_path))
        # Store off: the parallel legs saved every cell to the session
        # store, which would serve the serial leg the results it is
        # meant to check.
        monkeypatch.setenv("REPRO_STORE", "off")
        fresh = run_matrix_detailed(tasks, jobs=1)
        assert all(
            not r.from_store and r.attempts >= 1 for r in fresh
        ), "every serial cell must be simulated"
        assert [s.to_dict() for s in resumed] == [r.stats.to_dict() for r in fresh]


class TestTaskKey:
    def test_stable_across_equal_tasks(self):
        a = SimTask(small_config(seed=1), "fft")
        b = SimTask(small_config(seed=1), "fft")
        assert task_key(a) == task_key(b)

    def test_distinguishes_config_app_and_seed(self):
        base = SimTask(small_config(seed=1), "fft")
        assert task_key(base) != task_key(SimTask(small_config(seed=2), "fft"))
        assert task_key(base) != task_key(SimTask(small_config(seed=1), "ocean"))
        assert task_key(base) != task_key(
            SimTask(small_config(seed=1, accesses_per_vcpu=401), "fft")
        )


class TestManifest:
    def test_records_tasks_jobs_and_failures(self, tmp_path):
        tasks = [
            SimTask(small_config(seed=11), "fft"),
            SimTask(small_config(seed=12), "crash"),
        ]
        run_matrix_detailed(
            tasks, jobs=1, checkpoint_dir=str(tmp_path),
            task_fn=_misbehaving, label="mf",
        )
        manifest = json.loads((tmp_path / "manifest-mf.json").read_text())
        assert manifest["jobs"] == 1
        assert manifest["git_rev"]
        entries = manifest["tasks"]
        assert [e["seed"] for e in entries] == [11, 12]
        assert [e["app"] for e in entries] == ["fft", "crash"]
        assert entries[0]["ok"] and entries[0]["us_per_access"] > 0
        assert not entries[1]["ok"] and "injected crash" in entries[1]["error"]
        assert manifest["failures"] == [entries[1]["key"]]
        assert all(e["wall_seconds"] >= 0 for e in entries)

    def test_kernel_bulk_is_jobs_invariant_and_only_on_batched_runs(
        self, tmp_path, monkeypatch
    ):
        tasks = [
            SimTask(small_config(seed=13, kernel="batched"), "fft"),
            SimTask(small_config(seed=14, kernel="batched"), "ocean"),
            SimTask(small_config(seed=15, kernel="reference"), "fft"),
        ]
        entries = {}
        for jobs in (1, 2):
            monkeypatch.setenv("REPRO_STORE", str(tmp_path / f"store-{jobs}"))
            campaign = tmp_path / f"campaign-{jobs}"
            run_matrix_detailed(
                tasks, jobs=jobs, checkpoint_dir=str(campaign), label="kb"
            )
            entries[jobs] = json.loads((campaign / "manifest-kb.json").read_text())["tasks"]
        bulk = [entry.get("kernel_bulk") for entry in entries[1]]
        assert bulk == [entry.get("kernel_bulk") for entry in entries[2]]
        assert bulk[0]["bulk_transacts"] > 0 and bulk[1]["bulk_transacts"] > 0
        assert "kernel_bulk" not in entries[1][2]  # reference engine
        for entry in entries[1] + entries[2]:
            assert entry["warm_seconds"] > 0 and entry["measure_seconds"] > 0
        # Served from the store: nothing ran, so no seam summary or split.
        campaign = tmp_path / "campaign-served"
        served = run_matrix_detailed(
            tasks, jobs=1, checkpoint_dir=str(campaign), label="kb"
        )
        assert all(result.from_store for result in served)
        for entry in json.loads((campaign / "manifest-kb.json").read_text())["tasks"]:
            assert "kernel_bulk" not in entry
            assert entry["warm_seconds"] is entry["measure_seconds"] is None

    def test_unlabelled_matrix_gets_digest_named_manifest(self, tmp_path):
        run_matrix_detailed(seed_tasks(1), jobs=1, checkpoint_dir=str(tmp_path))
        manifests = list(tmp_path.glob("manifest-*.json"))
        assert len(manifests) == 1


class TestCampaignSettings:
    def test_env_var_supplies_default_checkpoint_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CAMPAIGN_ENV_VAR, str(tmp_path))
        assert campaign_settings().checkpoint_dir == str(tmp_path)
        run_matrix(seed_tasks(1), jobs=1)
        assert list(tmp_path.glob("*.json"))

    def test_set_campaign_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CAMPAIGN_ENV_VAR, "/nonexistent")
        set_campaign(CampaignSettings(checkpoint_dir=str(tmp_path), retries=2))
        try:
            settings = campaign_settings()
            assert settings.checkpoint_dir == str(tmp_path)
            assert settings.retries == 2
        finally:
            set_campaign(None)

    def test_default_is_no_campaign(self, monkeypatch):
        monkeypatch.delenv(CAMPAIGN_ENV_VAR, raising=False)
        settings = campaign_settings()
        assert settings.checkpoint_dir is None
        assert settings.retries == 0
        assert settings.task_timeout is None
