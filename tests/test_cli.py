"""Tests for the repro-sim command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "fft"
        assert args.policy == "vsnoop-base"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_every_experiment_maps_to_module(self):
        import importlib

        for name, (module_name, _) in EXPERIMENTS.items():
            module = importlib.import_module(module_name)
            assert hasattr(module, "main"), name


class TestCommands:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "specweb" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--app", "fft", "--policy", "counter",
            "--accesses", "500", "--warmup", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "snoops vs broadcast" in out

    def test_run_regionscout(self, capsys):
        code = main([
            "run", "--filter", "regionscout",
            "--accesses", "500", "--warmup", "200",
        ])
        assert code == 0
        assert "snoops" in capsys.readouterr().out

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "potential snoop reduction" in capsys.readouterr().out

    def test_record_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.trace"
        code = main([
            "record-trace", "--app", "fft", "--out", str(out_file),
            "--accesses", "25",
        ])
        assert code == 0
        from repro.workloads.tracefile import load_trace

        assert len(load_trace(out_file)) == 100  # 25 x 4 vCPUs

    def test_profile_smoke(self, capsys, monkeypatch):
        # auto must resolve to the batched kernel, whose bulk-miss seam
        # the report reads from the profiled run's own engine.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        code = main([
            "profile", "--app", "fft", "--accesses", "300",
            "--warmup", "100", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "us/access" in out
        assert "bulk-miss seam:" in out
        # One profiled simulation: no extra kernel-comparison runs.
        assert "vs reference" not in out
        assert "kernel comparison" not in out

    def test_profile_zero_accesses_prints_na(self, capsys):
        code = main([
            "profile", "--app", "fft", "--accesses", "0",
            "--warmup", "0", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-access rate n/a" in out
        assert "us/access" not in out

    def test_run_zero_accesses_prints_na(self, capsys):
        # A zero-length run must not dodge divisions into misleading
        # "0.0000" / "0.0%" rows.
        code = main(["run", "--app", "fft", "--accesses", "0", "--warmup", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n/a (no accesses)" in out


class TestJobsFlag:
    def test_garbage_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--jobs", "1.5", "run"])
        with pytest.raises(SystemExit):
            main(["--jobs", "-2", "run"])

    def test_auto_accepted_case_insensitive(self):
        from repro.sim.runner import parse_jobs
        import os

        assert parse_jobs("AUTO") == (os.cpu_count() or 1)
        assert parse_jobs(" 0 ") == (os.cpu_count() or 1)


class TestConfigErrors:
    """An invalid ``SimConfig`` exits 2 with a usage error, as an
    invalid ``--jobs`` does, instead of a traceback."""

    @pytest.mark.parametrize(
        "argv", [["--accesses", "-5"], ["--warmup", "-1"], ["--vms", "0"]]
    )
    def test_invalid_config_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--app", "fft", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro-sim: error:" in err
        assert "Traceback" not in err


class TestExperimentCampaign:
    """The --out/--resume/--retries/--task-timeout wiring, end to end on
    a two-cell test experiment."""

    @pytest.fixture(autouse=True)
    def _register_tiny(self, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "tinyexp", ("tests.sim.tiny_experiment", "Tiny test matrix")
        )
        # These tests pin down checkpoint/--resume semantics; a cell an
        # earlier test pushed into the session store would otherwise be
        # served as from_store and mask the behaviour under test.
        monkeypatch.setenv("REPRO_STORE", "off")

    def test_out_writes_checkpoints_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        assert main(["experiment", "tinyexp", "--out", str(out)]) == 0
        assert "snoops" in capsys.readouterr().out
        manifest = json.loads((out / "manifest-tiny.json").read_text())
        assert manifest["totals"] == {
            "tasks": 2, "ok": 2, "failed": 0, "from_checkpoint": 0,
            "from_store": 0,
            "wall_seconds": manifest["totals"]["wall_seconds"],
        }
        assert len(list((out / "results").glob("*.json"))) == 2

    def test_resume_reuses_checkpointed_cells(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        assert main(["experiment", "tinyexp", "--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert main(["experiment", "tinyexp", "--out", str(out), "--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second  # bit-identical tables from resumed cells
        manifest = json.loads((out / "manifest-tiny.json").read_text())
        assert manifest["totals"]["from_checkpoint"] == 2

    def test_existing_campaign_requires_resume(self, tmp_path):
        out = tmp_path / "campaign"
        assert main(["experiment", "tinyexp", "--out", str(out)]) == 0
        with pytest.raises(SystemExit):
            main(["experiment", "tinyexp", "--out", str(out)])

    @pytest.mark.parametrize("name", ["fig2"])
    @pytest.mark.parametrize("resume", [False, True], ids=["out", "resume"])
    def test_uncheckpointed_study_refuses_out(self, name, resume, tmp_path, capsys):
        # The analytic fig2 never reaches run_matrix, so a campaign
        # directory would stay empty; the CLI must say so instead of running.
        argv = ["experiment", name, "--out", str(tmp_path / "campaign")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + (["--resume"] if resume else []))
        assert excinfo.value.code == 2
        assert f"experiment {name} cannot be checkpointed" in capsys.readouterr().err
        assert not (tmp_path / "campaign").exists()

    def test_resume_requires_out(self):
        with pytest.raises(SystemExit):
            main(["experiment", "tinyexp", "--resume"])

    def test_retries_and_timeout_validated(self):
        with pytest.raises(SystemExit):
            main(["experiment", "tinyexp", "--retries", "-1"])
        with pytest.raises(SystemExit):
            main(["experiment", "tinyexp", "--task-timeout", "0"])

    def test_campaign_settings_restored_after_run(self, tmp_path):
        from repro.sim import campaign_settings

        out = tmp_path / "campaign"
        assert main(["experiment", "tinyexp", "--out", str(out)]) == 0
        assert campaign_settings().checkpoint_dir is None
