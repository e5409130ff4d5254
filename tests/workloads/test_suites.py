"""Service profiles, scenario suites, and their config/CLI/snapshot
wiring: registry integrity, validation, SimConfig selection, store
identity (task keys and warm-up fingerprints), the warm-snapshot
delegation layer, and the repro-sim surface."""

import json
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.sim import SimTask, run_simulation_task
from repro.sim.config import SimConfig
from repro.sim.runner import config_to_dict, task_key, warmup_fingerprint
from repro.sim.system import build_system
from repro.workloads.generator import VmWorkload
from repro.workloads.pattern_workload import PatternWorkload, workloads_for_config
from repro.workloads.profiles import PROFILES
from repro.workloads.service import (
    SERVICES,
    ServiceProfile,
    generic_service,
    get_service,
)
from repro.workloads.suites import (
    SUITE_NAMES,
    SUITES,
    get_suite,
    resolve_entry,
    resolve_services,
    suite_services,
)
from repro.workloads.trace import Initiator

BASE = SimConfig(
    num_cores=4,
    mesh_width=2,
    mesh_height=2,
    num_vms=2,
    vcpus_per_vm=2,
    accesses_per_vcpu=400,
    warmup_accesses_per_vcpu=100,
    content_sharing_enabled=True,
    hypervisor_activity_enabled=True,
)


class TestServiceRegistry:
    def test_catalogue_names_match_keys(self):
        for name, profile in SERVICES.items():
            assert profile.name == name

    def test_expected_services_present(self):
        assert {"web", "datalake", "backup", "kvcache"} <= set(SERVICES)

    def test_get_service_unknown(self):
        with pytest.raises(KeyError, match="unknown service"):
            get_service("nosuchservice")

    def test_generic_service_applies_pattern_everywhere(self):
        profile = generic_service("zipfian(alpha=1.4)")
        assert profile.name == "mixed[zipfian(alpha=1.4)]"
        for pool in ("private", "shared", "content"):
            assert profile.pattern_for(pool).spec() == "zipfian(alpha=1.4)"

    def test_with_patterns_preserves_mix(self):
        web = get_service("web")
        scanned = web.with_patterns("sequential")
        assert scanned.private_fraction == web.private_fraction
        assert scanned.write_fraction == web.write_fraction
        assert scanned.private_pattern == "sequential"
        assert scanned.content_pattern == "sequential"


class TestServiceValidation:
    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            ServiceProfile(name="x", description="", private_fraction=-0.1)

    def test_zero_guest_weight_rejected(self):
        with pytest.raises(ValueError, match="positive access weight"):
            ServiceProfile(
                name="x",
                description="",
                private_fraction=0.0,
                shared_fraction=0.0,
                content_fraction=0.0,
            )

    def test_write_fraction_bounds(self):
        with pytest.raises(ValueError, match="write_fraction"):
            ServiceProfile(name="x", description="", write_fraction=1.5)

    def test_pages_bounds(self):
        with pytest.raises(ValueError, match="private_pages"):
            ServiceProfile(name="x", description="", private_pages=0)

    def test_bad_pattern_spec_fails_at_construction(self):
        with pytest.raises(ValueError):
            ServiceProfile(name="x", description="", private_pattern="nope")


class TestSuiteRegistry:
    def test_suite_names_sorted_and_match_keys(self):
        assert SUITE_NAMES == tuple(sorted(SUITES))
        for name, suite in SUITES.items():
            assert suite.name == name

    def test_every_entry_resolves(self):
        for suite in SUITES.values():
            for entry in suite.vm_services:
                assert isinstance(resolve_entry(entry), ServiceProfile)

    def test_get_suite_unknown(self):
        with pytest.raises(KeyError, match="unknown suite"):
            get_suite("nosuchsuite")

    def test_entry_pattern_override(self):
        profile = resolve_entry("web:uniform")
        assert profile.private_pattern == "uniform"
        assert profile.write_fraction == get_service("web").write_fraction

    def test_suite_services_cycle(self):
        services = suite_services("backup-window", 5)
        assert [s.name for s in services] == [
            "backup", "web", "backup", "web", "backup",
        ]

    def test_resolve_services_pattern_wins(self):
        services = resolve_services("uniform", None, 3)
        assert len(services) == 3
        assert all(s.name == "mixed[uniform]" for s in services)

    def test_resolve_services_requires_selection(self):
        with pytest.raises(ValueError):
            resolve_services(None, None, 2)


class TestConfigWiring:
    def test_pattern_field_validated(self):
        with pytest.raises(ValueError):
            replace(BASE, pattern="nosuchpattern")

    def test_suite_field_validated(self):
        with pytest.raises(ValueError, match="unknown suite"):
            replace(BASE, suite="nosuchsuite")

    def test_pattern_and_suite_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            replace(BASE, pattern="uniform", suite="web-farm")

    def test_defaults_are_none(self):
        assert BASE.pattern is None and BASE.suite is None

    def test_config_to_dict_carries_selection(self):
        out = config_to_dict(replace(BASE, suite="cloud-mix"))
        assert out["suite"] == "cloud-mix"
        assert out["pattern"] is None

    def test_task_key_distinguishes_patterns(self):
        keys = {
            task_key(SimTask(replace(BASE, pattern=spec), "fft"))
            for spec in ("uniform", "zipfian(alpha=1.1)", "zipfian(alpha=1.2)")
        }
        assert len(keys) == 3

    def test_warmup_fingerprint_not_inert(self):
        # A pattern/suite selection changes the warm state, so it must
        # change the warm-up fingerprint (unlike, say, the kernel).
        plain = warmup_fingerprint(SimTask(BASE, "fft"))[0]
        suite = warmup_fingerprint(SimTask(replace(BASE, suite="web-farm"), "fft"))[0]
        pattern = warmup_fingerprint(
            SimTask(replace(BASE, pattern="uniform"), "fft")
        )[0]
        assert len({plain, suite, pattern}) == 3

    def test_kernel_still_inert_with_suite(self):
        a = warmup_fingerprint(
            SimTask(replace(BASE, suite="web-farm", kernel="reference"), "fft")
        )[0]
        b = warmup_fingerprint(
            SimTask(replace(BASE, suite="web-farm", kernel="batched"), "fft")
        )[0]
        assert a == b

    def test_build_system_selects_pattern_workloads(self):
        system = build_system(replace(BASE, suite="cloud-mix"), PROFILES["fft"])
        assert all(
            isinstance(w, PatternWorkload) for w in system.workloads.values()
        )

    def test_build_system_default_still_vmworkload(self):
        system = build_system(BASE, PROFILES["fft"])
        assert all(isinstance(w, VmWorkload) for w in system.workloads.values())


class TestPatternWorkload:
    def test_validation(self):
        web = get_service("web")
        with pytest.raises(ValueError, match="working_set_scale"):
            PatternWorkload(web, 1, 2, working_set_scale=0.0)
        with pytest.raises(ValueError, match="vCPU"):
            PatternWorkload(web, 1, 0)

    def test_workloads_for_config_cycles_suite(self):
        config = replace(BASE, suite="backup-window", num_vms=2)
        system = build_system(config, PROFILES["fft"])
        vms = sorted(system.workloads)
        assert system.workloads[vms[0]].service.name == "backup"
        assert system.workloads[vms[1]].service.name == "web"

    def test_workloads_for_config_keys_match_vms(self):
        config = replace(BASE, pattern="uniform")
        system = build_system(config, PROFILES["fft"])

        class _Vm:
            def __init__(self, vm_id):
                self.vm_id = vm_id

        built = workloads_for_config(config, [_Vm(7), _Vm(9)])
        assert sorted(built) == [7, 9]
        assert all(isinstance(w, PatternWorkload) for w in built.values())
        assert set(system.workloads) == {w.vm_id for w in system.workloads.values()}

    def test_content_labels_equal_pages(self):
        workload = PatternWorkload(get_service("web"), 1, 1)
        for page, label in workload.content_pages():
            assert page == label

    def test_hypervisor_excluded_when_disabled(self):
        workload = PatternWorkload(
            get_service("web"), 1, 1, include_hypervisor=False
        )
        initiators = {
            workload.next_access(0).initiator for _ in range(2_000)
        }
        assert initiators == {Initiator.GUEST}

    def test_hypervisor_present_when_enabled(self):
        workload = PatternWorkload(get_service("web"), 1, 1, seed=3)
        initiators = {
            workload.next_access(0).initiator for _ in range(5_000)
        }
        assert Initiator.HYPERVISOR in initiators
        assert Initiator.DOM0 in initiators

    def test_streams_deterministic_per_seed(self):
        a = PatternWorkload(get_service("kvcache"), 2, 2, seed=5)
        b = PatternWorkload(get_service("kvcache"), 2, 2, seed=5)
        assert [a.next_access(1) for _ in range(200)] == [
            b.next_access(1) for _ in range(200)
        ]
        c = PatternWorkload(get_service("kvcache"), 2, 2, seed=6)
        assert [a.next_access(0) for _ in range(200)] != [
            c.next_access(0) for _ in range(200)
        ]

    def test_vcpus_share_no_state(self):
        # Draining vCPU 0 must not perturb vCPU 1's stream: each vCPU
        # owns its RNG and samplers (the pattern determinism contract).
        alone = PatternWorkload(get_service("web"), 1, 2, seed=8)
        interleaved = PatternWorkload(get_service("web"), 1, 2, seed=8)
        expected = [alone.next_access(1) for _ in range(100)]
        for _ in range(5_000):
            interleaved.next_access(0)
        assert [interleaved.next_access(1) for _ in range(100)] == expected


class TestSnapshotDelegation:
    def _drained(self, workload, per_vcpu):
        for vcpu in range(workload.num_vcpus):
            for _ in range(per_vcpu):
                workload.next_access(vcpu)
        return workload

    def test_pattern_workload_snapshot_resumes_exactly(self):
        config = replace(BASE, suite="phase-shift")
        build = lambda: PatternWorkload(  # noqa: E731
            suite_services("phase-shift", 1)[0], 1, 2, seed=BASE.seed
        )
        warmed = self._drained(build(), 300)
        captured = warmed.snapshot_state()
        expected = [warmed.next_access(v) for v in (0, 1, 0, 1) for _ in range(40)]

        restored = build()
        restored.restore_state(captured)
        assert [
            restored.next_access(v) for v in (0, 1, 0, 1) for _ in range(40)
        ] == expected
        assert config.suite == "phase-shift"

    def test_pattern_snapshot_rejects_foreign_kind(self):
        workload = PatternWorkload(get_service("web"), 1, 1)
        with pytest.raises(ValueError, match="pattern-workload"):
            workload.restore_state({"kind": "trace"})

    def test_vmworkload_snapshot_resumes_exactly(self):
        build = lambda: VmWorkload(PROFILES["fft"], 1, 2, seed=42)  # noqa: E731
        warmed = self._drained(build(), 300)
        captured = warmed.snapshot_state()
        assert set(captured) == {
            "rng", "private", "shared", "content", "hyp", "dom0",
        }
        expected = [warmed.next_access(v) for v in (0, 1) for _ in range(50)]

        restored = build()
        restored.restore_state(captured)
        assert [
            restored.next_access(v) for v in (0, 1) for _ in range(50)
        ] == expected

    def test_system_snapshot_restore_round_trips(self):
        from repro.sim.kernel import engine_for

        config = replace(BASE, suite="cloud-mix")
        system = build_system(config, PROFILES["fft"])
        engine_for(system).run()
        clocks = [0] * config.num_cores
        captured = system.snapshot(clocks)
        fresh = build_system(config, PROFILES["fft"])
        restored_clocks = fresh.restore(captured)
        assert restored_clocks == clocks
        assert fresh.snapshot(restored_clocks) == captured
        for vm_id, workload in system.workloads.items():
            twin = fresh.workloads[vm_id]
            assert [workload.next_access(0) for _ in range(50)] == [
                twin.next_access(0) for _ in range(50)
            ]

    def test_warm_snapshot_reuse_is_bit_identical(self, monkeypatch, tmp_path):
        # The store warms "cloud-mix" once (migration period is
        # warm-up-inert) and forks the second cell from the snapshot;
        # the forked run must equal a cold run exactly.
        warm_store = tmp_path / "warm"
        cold_store = tmp_path / "cold"
        config = replace(BASE, suite="cloud-mix")
        sweep = replace(config, migration_period_ms=0.4)

        monkeypatch.setenv("REPRO_STORE", str(warm_store))
        run_simulation_task(SimTask(config, "fft"))  # populates warm state
        forked = run_simulation_task(SimTask(sweep, "fft"))

        monkeypatch.setenv("REPRO_STORE", str(cold_store))
        cold = run_simulation_task(SimTask(sweep, "fft"))
        assert forked.to_dict() == cold.to_dict()


class TestCli:
    def test_run_accepts_pattern(self, capsys):
        assert main([
            "run", "--pattern", "zipfian(alpha=1.2)",
            "--accesses", "300", "--warmup", "100",
        ]) == 0
        assert "snoops vs broadcast" in capsys.readouterr().out

    def test_run_accepts_suite(self, capsys):
        assert main([
            "run", "--suite", "web-farm",
            "--accesses", "300", "--warmup", "100",
        ]) == 0
        assert "snoops vs broadcast" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.pattern is None and args.suite is None

    def test_parser_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--suite", "nosuchsuite"])

    def test_list_patterns(self, capsys):
        assert main(["list-patterns"]) == 0
        out = capsys.readouterr().out
        assert "dynamicmix" in out
        assert "datalake" in out
        for suite in SUITE_NAMES:
            assert suite in out

    def test_record_trace_pattern(self, capsys, tmp_path):
        out_path = tmp_path / "pattern.trace"
        assert main([
            "record-trace", "--pattern", "hotspot",
            "--accesses", "20", "--vcpus", "2", "--out", str(out_path),
        ]) == 0
        from repro.workloads.tracefile import load_trace

        assert len(load_trace(out_path)) == 40

    def test_patterns_experiment_registered(self):
        import importlib

        from repro.cli import EXPERIMENTS

        module_name, _ = EXPERIMENTS["patterns"]
        module = importlib.import_module(module_name)
        assert hasattr(module, "main")

    def test_pattern_study_smoke(self, monkeypatch, capsys):
        from repro.experiments import pattern_study

        monkeypatch.setenv("PATTERN_SMOKE", "1")
        monkeypatch.setenv("REPRO_STORE", "off")
        results = pattern_study.run(
            suites=["web-farm"], accesses=300, warmup=100
        )
        assert set(results) == {"web-farm"}
        cell = results["web-farm"]["vsnoop-base"]
        assert 0.0 <= cell["miss_rate"] <= 1.0
        assert cell["snoops_norm_pct"] <= 100.0
        table = pattern_study.format_patterns(results)
        assert "web-farm" in table

    def test_pattern_study_results_serializable(self, monkeypatch):
        from repro.experiments import pattern_study

        monkeypatch.setenv("PATTERN_SMOKE", "1")
        monkeypatch.setenv("REPRO_STORE", "off")
        results = pattern_study.run(suites=["web-farm"], accesses=200, warmup=50)
        json.dumps(results)
