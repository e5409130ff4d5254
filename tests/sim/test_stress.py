"""Kitchen-sink stress tests: every feature enabled at once.

The paper's mechanisms interact: content sharing creates RO pages whose
COWs free host pages; migration shuffles vCPUs while residence counters
shrink vCPU maps; counter-threshold removes cores speculatively and
leans on TokenB retries. These tests run all of it together and assert
the system-wide invariants hold at the end.
"""

from dataclasses import replace

import pytest

from repro.coherence.registry import cores_of
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.sim import SimConfig, build_system
from repro.sim.kernel import engine_for
from repro.workloads import get_profile


def stress_system(
    policy, content_policy=ContentPolicy.FRIEND_VM, seed=5, kernel="auto"
):
    """Run one stress cell; returns ``(system, measured COW faults)``."""
    profile = replace(
        get_profile("canneal"),
        content_write_fraction=0.005,  # force COW churn
    )
    config = SimConfig.migration_study(
        snoop_policy=policy,
        content_policy=content_policy,
        content_sharing_enabled=True,
        migration_period_ms=0.2,
        accesses_per_vcpu=8_000,
        warmup_accesses_per_vcpu=2_000,
        seed=seed,
        kernel=kernel,
    )
    system = build_system(config, profile)
    engine = engine_for(system)
    clocks = engine.warm()
    faults_before = system.hypervisor.memory.cow_faults
    engine.measure(clocks)
    return system, system.hypervisor.memory.cow_faults - faults_before


POLICIES = [
    SnoopPolicy.BROADCAST,
    SnoopPolicy.VSNOOP_BASE,
    SnoopPolicy.VSNOOP_COUNTER,
    SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_stress_all_features(policy):
    system, cow_faults = stress_system(policy)
    stats = system.stats
    assert stats.total_transactions > 0
    assert stats.migrations > 0
    # Every COW fault of the measured phase, and only those.
    assert stats.cow_events == cow_faults > 0
    # Registry and caches stayed consistent through migrations, COWs,
    # invalidations, page frees and speculative map removals.
    for core, hierarchy in system.caches.items():
        for block, vm_id, _ in hierarchy.l2.lines():
            state = system.registry.state_of(block)
            assert state is not None and core in cores_of(state.sharers)
    # Residence counters stayed exact.
    for core, hierarchy in system.caches.items():
        actual = {}
        for block, vm_id, _ in hierarchy.l2.lines():
            if vm_id >= 0:
                actual[vm_id] = actual.get(vm_id, 0) + 1
        tracker = system.snoop_filter.trackers[core]
        for vm in (1, 2, 3, 4):
            assert tracker.count(vm) == actual.get(vm, 0)


@pytest.mark.parametrize(
    "content_policy", list(ContentPolicy), ids=lambda p: p.value
)
def test_stress_content_policies(content_policy):
    system, _ = stress_system(SnoopPolicy.VSNOOP_COUNTER, content_policy)
    assert system.stats.total_transactions > 0


def test_stress_deterministic():
    a, _ = stress_system(SnoopPolicy.VSNOOP_COUNTER_THRESHOLD, seed=9)
    b, _ = stress_system(SnoopPolicy.VSNOOP_COUNTER_THRESHOLD, seed=9)
    assert a.stats.total_snoops == b.stats.total_snoops
    assert a.stats.cow_events == b.stats.cow_events
    assert a.stats.migrations == b.stats.migrations


def test_stress_cow_events_match_across_kernels():
    counts = []
    for kernel in ("reference", "batched"):
        system, cow_faults = stress_system(SnoopPolicy.VSNOOP_COUNTER, kernel=kernel)
        counts.append((system.stats.cow_events, cow_faults))
    reference, batched = counts
    assert reference == batched
    assert reference[0] == reference[1] > 0
