"""ResidenceTracker vs. sanitizer ground truth on every event path.

These tests drive L2 contents directly (fill / evict-by-conflict /
invalidate, guest and UNTRACKED_VM lines) on a sanitizer-attached system.
The shadow cache recomputes true per-VM residence independently and
``check_tracker`` raises on the first divergence, so merely completing an
operation sequence proves the tracker stayed consistent; the explicit
``counts()`` comparisons then pin the expected values.
"""

import pytest

from repro.core.residence import UNTRACKED_VM
from repro.sanitizer import SanitizerViolation
from repro.sim import SimConfig, build_system
from repro.workloads import get_profile

VM = 1  # first guest VM id in a built system
OTHER_VM = 2


@pytest.fixture
def system():
    config = SimConfig(
        num_cores=4,
        mesh_width=2,
        mesh_height=2,
        num_vms=2,
        vcpus_per_vm=2,
        l1_size=1024,
        l1_ways=2,
        l2_size=4096,
        l2_ways=4,
        sanitize=True,
    )
    return build_system(config, get_profile("fft"))


def parts(system, core=0):
    hierarchy = system.caches[core]
    tracker = system.snoop_filter.trackers[core]
    shadow = system.sanitizer.shadows[core]
    return hierarchy, tracker, shadow


def same_set_blocks(hierarchy, count):
    """Blocks that all map to L2 set 0, to force conflict evictions."""
    num_sets = hierarchy.l2.capacity_lines // hierarchy.l2.ways
    return [i * num_sets for i in range(count)]


def test_insert_paths_agree(system):
    hierarchy, tracker, shadow = parts(system)
    for block in (10, 20, 30):
        hierarchy.fill(block, VM)
    hierarchy.fill(40, OTHER_VM)
    assert tracker.counts() == shadow.counts() == {VM: 3, OTHER_VM: 1}


def test_conflict_eviction_decrements_consistently(system):
    hierarchy, tracker, shadow = parts(system)
    blocks = same_set_blocks(hierarchy, hierarchy.l2.ways + 2)
    for block in blocks:
        hierarchy.fill(block, VM)
    # Two LRU victims were evicted from the set; the tracker must have
    # followed (the shadow would have raised RESIDENCE otherwise).
    assert tracker.count(VM) == hierarchy.l2.ways
    assert tracker.counts() == shadow.counts()
    assert not hierarchy.l2.contains(blocks[0])


def test_invalidation_decrements_consistently(system):
    hierarchy, tracker, shadow = parts(system)
    hierarchy.fill(10, VM)
    hierarchy.fill(20, VM)
    hierarchy.invalidate(10)
    assert tracker.counts() == shadow.counts() == {VM: 1}
    hierarchy.invalidate(20)
    assert tracker.counts() == shadow.counts() == {}
    assert tracker.is_empty_for(VM)


def test_untracked_vm_lines_never_reach_counters(system):
    hierarchy, tracker, shadow = parts(system)
    hierarchy.fill(10, UNTRACKED_VM)
    hierarchy.fill(20, UNTRACKED_VM)
    assert tracker.counts() == {}
    # The shadow still tracks residence (they are real lines that snoops
    # must reach) — just not in the per-VM counts.
    assert shadow.counts() == {}
    assert shadow.resident_blocks() == {10, 20}
    hierarchy.invalidate(10)
    hierarchy.fill(30, VM)
    blocks = same_set_blocks(hierarchy, hierarchy.l2.ways)
    for block in blocks:  # evict the remaining untracked line by conflict
        hierarchy.fill(block, UNTRACKED_VM)
    assert tracker.counts() == shadow.counts()
    assert tracker.count(VM) == 1


def test_mixed_vm_set_contention_stays_consistent(system):
    hierarchy, tracker, shadow = parts(system)
    blocks = same_set_blocks(hierarchy, 3 * hierarchy.l2.ways)
    tags = [VM, OTHER_VM, UNTRACKED_VM]
    for index, block in enumerate(blocks):
        hierarchy.fill(block, tags[index % 3])
    assert tracker.counts() == shadow.counts()
    total_tracked = sum(shadow.counts().values())
    untracked = len(shadow.resident_blocks()) - total_tracked
    assert untracked >= 0


def test_tracker_divergence_is_caught_at_the_faulting_event(system):
    hierarchy, tracker, shadow = parts(system)
    hierarchy.fill(10, VM)
    tracker._counts[VM] += 1  # corrupt: counter claims one extra line
    with pytest.raises(SanitizerViolation) as exc:
        hierarchy.fill(20, VM)  # very next event cross-checks and fails
    assert "residence counter diverged" in str(exc.value)


def test_double_decrement_hits_tracker_underflow_guard(system):
    hierarchy, tracker, shadow = parts(system)
    line = hierarchy.fill(10, VM)
    hierarchy.invalidate(10)
    # The tracker's own underflow guard fires before the sanitizer could:
    # decrementing a VM with no lines is a hard bookkeeping bug.
    with pytest.raises(RuntimeError):
        tracker.on_evict(10, VM)
