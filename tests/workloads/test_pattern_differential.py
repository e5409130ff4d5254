"""Differential tests: every pattern rides the fast-path machinery.

The pattern library's acceptance bar is the same as the batched
kernel's: for every registered pattern and every named suite, the
batched kernel's ``SimStats.to_dict()`` equals the reference engine's
byte-for-byte, the parallel runner equals the serial runner, and a
sanitized run raises no coherence violations. Hypothesis widens the
parameter space beyond the hand-picked specs.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimTask, run_matrix
from repro.sim.config import SimConfig
from repro.sim.kernel import engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES
from repro.workloads.suites import SUITE_NAMES

BASE = SimConfig(
    num_cores=4,
    mesh_width=2,
    mesh_height=2,
    num_vms=2,
    vcpus_per_vm=2,
    accesses_per_vcpu=600,
    warmup_accesses_per_vcpu=200,
    content_sharing_enabled=True,
    hypervisor_activity_enabled=True,
)

# One spec per registered pattern kind, with non-default parameters so
# the parse path is exercised too.
ALL_SPECS = [
    "uniform",
    "zipfian(alpha=1.2)",
    "hotspot(hot_fraction=0.1,hot_probability=0.9)",
    "sequential(stride=2)",
    "bursty(mean_burst=8.0)",
    "dynamicmix(phases=zipfian(alpha=1.1)@400+sequential@300)",
]
_ids = [spec.partition("(")[0] for spec in ALL_SPECS]


def run_stats(config: SimConfig, app: str = "fft") -> str:
    system = build_system(config, PROFILES[app])
    engine_for(system).run()
    return json.dumps(system.stats.to_dict(), sort_keys=True)


def assert_identical(config: SimConfig, app: str = "fft") -> None:
    reference = run_stats(replace(config, kernel="reference"), app)
    batched = run_stats(replace(config, kernel="batched"), app)
    assert batched == reference


class TestPatternKernelDifferential:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=_ids)
    def test_pattern_matches_reference(self, spec):
        assert_identical(replace(BASE, pattern=spec))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=_ids)
    def test_pattern_with_migrations_inside_chunks(self, spec):
        assert_identical(
            replace(BASE, pattern=spec, migration_period_ms=0.2)
        )

    def test_pattern_without_hypervisor(self):
        assert_identical(
            replace(
                BASE,
                pattern="zipfian(alpha=1.2)",
                hypervisor_activity_enabled=False,
            )
        )

    def test_pattern_single_vcpu(self):
        assert_identical(
            replace(BASE, pattern="bursty(mean_burst=4.0)", vcpus_per_vm=1)
        )


class TestSuiteKernelDifferential:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_suite_matches_reference(self, suite):
        assert_identical(replace(BASE, suite=suite))

    def test_suite_with_migrations(self):
        assert_identical(
            replace(BASE, suite="cloud-mix", migration_period_ms=0.2)
        )

    def test_suite_cycles_over_more_vms(self):
        # 4 VMs over a 2-entry suite exercises entry cycling; 8 cores
        # hold 4 x 2 vCPUs.
        assert_identical(
            replace(
                BASE,
                suite="backup-window",
                num_vms=4,
                num_cores=8,
                mesh_width=4,
                mesh_height=2,
            )
        )


class TestSanitizedSmoke:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=_ids)
    def test_pattern_sanitized(self, spec):
        config = replace(
            BASE,
            pattern=spec,
            sanitize=True,
            kernel="batched",
            accesses_per_vcpu=400,
            warmup_accesses_per_vcpu=100,
        )
        system = build_system(config, PROFILES["fft"])
        engine_for(system).run()
        assert system.sanitizer.violation_count == 0

    def test_suite_sanitized(self):
        config = replace(
            BASE,
            suite="cloud-mix",
            sanitize=True,
            kernel="batched",
            accesses_per_vcpu=400,
            warmup_accesses_per_vcpu=100,
        )
        system = build_system(config, PROFILES["fft"])
        engine_for(system).run()
        assert system.sanitizer.violation_count == 0


class TestSerialVsParallel:
    def test_runner_job_count_invariant(self, monkeypatch):
        # The result store would serve the second sweep from the first
        # one's cells; disable it so both sweeps actually execute.
        monkeypatch.setenv("REPRO_STORE", "off")
        small = replace(BASE, accesses_per_vcpu=400, warmup_accesses_per_vcpu=100)
        tasks = [
            SimTask(replace(small, pattern=spec), "fft")
            for spec in ALL_SPECS
        ] + [SimTask(replace(small, suite="cloud-mix"), "fft")]
        serial = run_matrix(tasks, jobs=1)
        parallel = run_matrix(tasks, jobs=2)
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in parallel]


# Hypothesis: random parameterisations beyond the hand-picked specs.
# Strategies build pattern objects (their validators bound the space)
# and feed the canonical spec() through the full config -> parse ->
# simulate path.

_alpha = st.floats(min_value=0.2, max_value=3.0, allow_nan=False)
_fraction = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
_probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_stride = st.integers(min_value=1, max_value=7)
_burst = st.floats(min_value=1.0, max_value=64.0, allow_nan=False)


def _pattern_specs():
    from repro.workloads.patterns import (
        BurstyPattern,
        DynamicMixPattern,
        HotspotPattern,
        SequentialPattern,
        UniformPattern,
        ZipfianPattern,
    )

    simple = st.one_of(
        st.just(UniformPattern()),
        st.builds(ZipfianPattern, alpha=_alpha),
        st.builds(HotspotPattern, hot_fraction=_fraction, hot_probability=_probability),
        st.builds(SequentialPattern, stride=_stride),
        st.builds(BurstyPattern, mean_burst=_burst),
    )
    mix = st.builds(
        lambda a, b, na, nb: DynamicMixPattern(segments=((a, na), (b, nb))),
        simple,
        simple,
        st.integers(min_value=50, max_value=400),
        st.integers(min_value=50, max_value=400),
    )
    return st.one_of(simple, mix).map(lambda p: p.spec())


class TestHypothesisPatterns:
    @given(spec=_pattern_specs())
    @settings(max_examples=8, deadline=None)
    def test_random_pattern_configs_match_reference(self, spec):
        assert_identical(
            replace(
                BASE,
                pattern=spec,
                accesses_per_vcpu=300,
                warmup_accesses_per_vcpu=100,
            )
        )

    @given(spec=_pattern_specs())
    @settings(max_examples=8, deadline=None)
    def test_spec_round_trips_through_config(self, spec):
        config = replace(BASE, pattern=spec)
        from repro.workloads.patterns import parse_pattern

        assert parse_pattern(config.pattern).spec() == spec
