"""Differential tests for the batched simulation kernel.

Every test here asserts the same thing at a different seam: a batched
run's ``SimStats.to_dict()`` and end state (``system.snapshot([])``,
LRU order included) are *equal* — not statistically close — to the
reference engine's on the identical configuration. The boundary
cases target exactly the places a batched loop can silently diverge:
migration windows and metrics samples landing mid-phase, COW writes and
shared-line evictions bailing out to the reference machinery, a
single-access budget, and trace-replay wrap and exhaustion mid-phase
through the trace workload's stepper.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.sim import kernel
from repro.sim.config import SimConfig
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import BatchedEngine, engine_for
from repro.sim.mtstream import WordStream
from repro.sim.system import build_system
from repro.workloads.generator import VmWorkload
from repro.workloads.profiles import PROFILES
from repro.workloads.tracefile import TraceReplayWorkload, record_workload
from tests.sim.differential import (
    assert_identical,
    assert_same_end_state,
    end_state,
    run_system,
)

BASE = SimConfig(
    num_cores=4,
    mesh_width=2,
    mesh_height=2,
    num_vms=2,
    vcpus_per_vm=2,
    accesses_per_vcpu=600,
    warmup_accesses_per_vcpu=200,
)


class TestDifferential:
    def test_plain(self):
        assert_identical(BASE)

    @pytest.mark.parametrize("app", ["lu", "ocean"])
    def test_other_profiles(self, app):
        assert_identical(BASE, app)

    def test_broadcast_policy(self):
        assert_identical(replace(BASE, snoop_policy=SnoopPolicy.BROADCAST))

    def test_counter_threshold_policy(self):
        assert_identical(
            replace(
                BASE,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
                counter_threshold=3,
            )
        )

    def test_migration_windows_mid_phase(self):
        assert_identical(
            replace(
                BASE,
                migration_period_ms=0.2,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )

    def test_metrics_samples_mid_phase(self):
        assert_identical(
            replace(BASE, metrics_sample_every=5000, migration_period_ms=0.2)
        )

    def test_cow_writes_bail_out(self):
        # Content sharing makes first writes to shared frames COW-split.
        assert_identical(
            replace(
                BASE,
                content_sharing_enabled=True,
                content_policy=ContentPolicy.INTRA_VM,
            )
        )

    def test_shared_line_evictions_under_pressure(self):
        # Caches small enough that shared lines are continually evicted,
        # exercising the eviction/writeback bail-out.
        assert_identical(
            replace(
                BASE,
                l1_size=1024,
                l2_size=4096,
                migration_period_ms=0.1,
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
            )
        )

    def test_hypervisor_dom0_streams(self):
        assert_identical(replace(BASE, hypervisor_activity_enabled=True))

    def test_everything_at_once(self):
        assert_identical(
            replace(
                BASE,
                migration_period_ms=0.3,
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
                content_policy=ContentPolicy.INTRA_VM,
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            )
        )

    def test_regionscout_filter(self):
        assert_identical(replace(BASE, filter_kind="regionscout"))

    def test_zero_budget(self):
        assert_identical(
            replace(BASE, accesses_per_vcpu=0, warmup_accesses_per_vcpu=0)
        )

    def test_single_access_budget(self):
        # The smallest possible batched phase: one access per vCPU.
        assert_identical(
            replace(BASE, accesses_per_vcpu=1, warmup_accesses_per_vcpu=1)
        )


class TestAccessBudgets:
    # A phase steps every vCPU at least once, so a zero measured budget
    # must skip the phase rather than run it uncounted.
    @pytest.mark.parametrize("kernel", ["reference", "batched"])
    @pytest.mark.parametrize("warmup", [0, 200])
    def test_zero_budget_measures_nothing(self, kernel, warmup):
        system, _ = run_system(
            replace(
                BASE,
                kernel=kernel,
                accesses_per_vcpu=0,
                warmup_accesses_per_vcpu=warmup,
            )
        )
        stats = system.stats
        assert stats.l1_accesses == 0
        assert sum(stats.l1_accesses_by_page_type.values()) == 0
        assert stats.total_transactions == 0
        counters = {
            (hierarchy.l1_hits, hierarchy.l2_hits, hierarchy.misses)
            for hierarchy in system.caches.values()
        }
        assert counters == {(0, 0, 0)}
        # No build-time traffic either, warm-up or not.
        assert stats.network_bytes == 0
        assert stats.network_messages == 0


class TestRefillEdges:
    def test_tiny_word_blocks(self):
        # Multi-vCPU VMs step per access while migration windows land
        # mid-phase.
        assert_identical(
            replace(
                BASE,
                migration_period_ms=0.3,
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
            )
        )


class TestPathSelection:
    def test_multi_vcpu_vms_step_and_word_stubs_are_inert(self):
        # Every vCPU steps through its workload's stepper closure. The
        # retired word- and chunk-path names survive only as raising
        # stubs, so a batched run that completes and matches reference
        # never touched them.
        assert_identical(BASE)
        with pytest.raises(RuntimeError):
            kernel._encode(None, None)
        with pytest.raises(RuntimeError):
            WordStream().raw(1)
        for config in (BASE, replace(BASE, pattern="zipfian")):
            system = build_system(config, PROFILES["fft"])
            for workload in system.workloads.values():
                with pytest.raises(RuntimeError):
                    workload.stream_chunk(0, 1)


class TestEngineSelection:
    def test_explicit_kernels_honoured(self):
        for kernel, expected in (
            ("reference", SimulationEngine),
            ("batched", BatchedEngine),
        ):
            system = build_system(replace(BASE, kernel=kernel), PROFILES["fft"])
            assert type(engine_for(system)) is expected

    def test_batched_forced_with_sanitizer(self):
        system = build_system(
            replace(BASE, kernel="batched", sanitize=True), PROFILES["fft"]
        )
        assert type(engine_for(system)) is BatchedEngine

    def test_auto_picks_batched_under_observers(self, monkeypatch, tmp_path):
        # An explicit REPRO_KERNEL (as the CI differential lanes set)
        # legitimately overrides auto; neutralise it to test the default.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        for observer in (
            {"sanitize": True},
            {"trace": str(tmp_path / "run.evt")},
        ):
            system = build_system(
                replace(BASE, kernel="auto", **observer), PROFILES["fft"]
            )
            assert system.sanitizer is not None or system.tracer is not None
            assert type(engine_for(system)) is BatchedEngine, observer

    def test_auto_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        system = build_system(replace(BASE, kernel="auto"), PROFILES["fft"])
        assert type(engine_for(system)) is SimulationEngine


class TestSanitizedBatched:
    def test_sanitizer_clean_and_identical_under_batched(self):
        config = replace(
            BASE,
            sanitize=True,
            migration_period_ms=0.3,
            content_sharing_enabled=True,
            hypervisor_activity_enabled=True,
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            content_policy=ContentPolicy.INTRA_VM,
        )
        systems = {}
        for kernel in ("reference", "batched"):
            system, _ = run_system(replace(config, kernel=kernel))
            assert system.sanitizer.violation_count == 0
            systems[kernel] = system
        assert_same_end_state(systems["batched"], systems["reference"])


class TestTraceReplay:
    def _trace_system(self, kernel: str, loop: bool):
        config = replace(
            BASE, kernel=kernel, accesses_per_vcpu=500, warmup_accesses_per_vcpu=100
        )
        profile = PROFILES["fft"]
        system = build_system(config, profile)
        for vm_id, workload in list(system.workloads.items()):
            source = VmWorkload(
                profile,
                vm_id=vm_id,
                num_vcpus=workload.num_vcpus,
                seed=config.seed,
                working_set_scale=config.working_set_scale,
            )
            # Fewer accesses than the phases consume: wraps when looping,
            # exhausts mid-phase otherwise.
            accesses = record_workload(source, 450)
            system.workloads[vm_id] = TraceReplayWorkload(
                vm_id,
                accesses,
                workload.num_vcpus,
                loop=loop,
                content_page_labels=list(source.content_pages()),
            )
        return system

    @pytest.mark.parametrize("loop", [True, False])
    def test_trace_replay_matches_reference(self, loop):
        outputs = {}
        for kernel in ("reference", "batched"):
            system = self._trace_system(kernel, loop)
            error = None
            try:
                engine_for(system).run()
            except StopIteration as exc:
                error = str(exc)
            outputs[kernel] = (end_state(system), error)
        assert outputs["batched"] == outputs["reference"]
        if not loop:
            assert outputs["batched"][1] is not None  # exhaustion surfaced


# Tier-1 draws 8 examples; the kernel-differential CI job loads the
# "kernel-differential" hypothesis profile (tests/conftest.py) and draws
# that profile's count instead.
_DEEP = settings.get_profile("kernel-differential")


@settings(
    max_examples=_DEEP.max_examples if settings.default is _DEEP else 8,
    deadline=None,
)
@given(
    params=st.fixed_dictionaries(
        {
            "seed": st.integers(0, 2**16),
            "snoop_policy": st.sampled_from(list(SnoopPolicy)),
            "content_policy": st.sampled_from(list(ContentPolicy)),
            # 1024 sits above any per-core count: under
            # counter-threshold, first attempts miss holders and retry.
            "counter_threshold": st.sampled_from([3, 10, 1024]),
            "migration_period_ms": st.sampled_from([None, 0.05, 0.2]),
            "metrics_sample_every": st.sampled_from([None, 1500]),
            "suite": st.sampled_from([None, "backup-window", "cloud-mix"]),
            # Down to a direct-mapped L2: a victim on nearly every miss.
            "l2_ways": st.sampled_from([4, 2, 1]),
            "content_sharing_enabled": st.booleans(),
            "hypervisor_activity_enabled": st.booleans(),
        }
    )
)
def test_property_batched_is_bit_identical(params):
    config = replace(
        BASE,
        l1_size=1024,
        l1_ways=2,
        l2_size=4096,
        working_set_scale=0.15,
        accesses_per_vcpu=400,
        warmup_accesses_per_vcpu=150,
        **params,
    )
    assert_identical(config)
