"""The kernel-differential check every differential suite shares.

A batched run must leave exactly what the reference engine leaves: the
same ``SimStats.to_dict()`` bytes, the same ``system.snapshot([])``
end state — cache sets with their LRU order, registry records with
their provider order, residence counters, page tables and workload
state — and the same traffic totals on the network. Stats alone miss
a wrong LRU order or a misplaced line until it changes a later hit; the
end state shows it at once.
"""

import json
from collections import Counter
from dataclasses import replace

from repro.core.residence import UNTRACKED_VM
from repro.sim.config import SimConfig
from repro.sim.kernel import engine_for
from repro.sim.system import build_system
from repro.workloads.profiles import PROFILES


def run_system(config: SimConfig, app="fft"):
    """Build and run ``config`` on ``app`` (a profile name or a profile);
    returns ``(system, engine)``."""
    profile = PROFILES[app] if isinstance(app, str) else app
    system = build_system(config, profile)
    engine = engine_for(system)
    engine.run()
    return system, engine


def end_state(system) -> tuple:
    """What two kernels must agree on: stats bytes, the end state and
    the network's live traffic totals.

    The totals are read from the network itself, not from the stats:
    a phase that raises never copies them into ``SimStats``, and the
    batched kernel adds its deferred traffic to them on the way out.
    """
    network = system.network
    return (
        json.dumps(system.stats.to_dict(), sort_keys=True),
        system.snapshot([]),
        (network.messages, network.flit_hops, network.bytes_transferred),
    )


def assert_identical(config: SimConfig, app="fft") -> None:
    """Run ``config`` under both kernels and compare their end states."""
    reference, _ = run_system(replace(config, kernel="reference"), app)
    batched, _ = run_system(replace(config, kernel="batched"), app)
    assert_same_end_state(batched, reference)


def assert_same_end_state(batched, reference) -> None:
    """Compare two finished systems, naming the first part that differs."""
    stats, snapshot, traffic = end_state(batched)
    reference_stats, reference_snapshot, reference_traffic = end_state(
        reference
    )
    assert stats == reference_stats, "SimStats differ across kernels"
    assert traffic == reference_traffic, "network traffic differs across kernels"
    differing = [
        key for key in reference_snapshot
        if snapshot[key] != reference_snapshot[key]
    ]
    assert not differing, f"end state differs across kernels: {differing}"


def same_vm_victim_counts(config: SimConfig, app="fft") -> Counter:
    """How many L2 fills of a reference run evicted a line of the filling
    VM itself, by that VM's residence count on the core just before the
    eviction."""
    system = build_system(
        replace(config, kernel="reference"),
        PROFILES[app] if isinstance(app, str) else app,
    )
    counts = Counter()
    for hierarchy in system.caches.values():
        tracker = hierarchy.l2.observer
        # A fill reports its victim's eviction, then its own insert.
        victims = []

        def on_evict(block, vm_id, tracker=tracker, victims=victims):
            victims.append((vm_id, tracker.count(vm_id)))
            type(tracker).on_evict(tracker, block, vm_id)

        def on_insert(block, vm_id, tracker=tracker, victims=victims):
            if victims:
                victim_vm, count = victims.pop()
                if victim_vm == vm_id != UNTRACKED_VM:
                    counts[count] += 1
            type(tracker).on_insert(tracker, block, vm_id)

        tracker.on_evict = on_evict
        tracker.on_insert = on_insert
    engine_for(system).run()
    return counts
