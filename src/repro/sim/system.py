"""Build a complete simulated system from a :class:`SimConfig`.

Wires together every substrate: mesh network, memory controller, token
registry and protocol, per-core cache hierarchies with residence-counter
observers, the hypervisor with its VMs, the virtual-snooping filter, and
one synthetic workload per VM. Also performs the initial vCPU placement
and the ideal content-sharing scan (flushing shared pages to memory, as
Section VI requires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.cache.hierarchy import PrivateHierarchy
from repro.cache.line import make_tag, tag_dirty, tag_vm
from repro.coherence.protocol import TokenProtocol
from repro.coherence.registry import MEMORY, TokenRegistry, cores_of, mask_of
from repro.core.filter import VirtualSnoopFilter
from repro.hypervisor.hypervisor import Hypervisor, PlacementListener
from repro.hypervisor.memory import HostPageInfo, MemoryManager
from repro.hypervisor.vm import DOM0_VM_ID, VirtualMachine
from repro.interconnect.messages import FlitSizing, MessageKind
from repro.interconnect.network import NetworkModel
from repro.interconnect.builder import build_topology
from repro.interconnect.topology import Topology
from repro.mem.address import AddressLayout
from repro.mem.controller import MemoryController
from repro.mem.pagetype import PageType
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.workloads.generator import VmWorkload
from repro.workloads.pattern_workload import PatternWorkload
from repro.workloads.profiles import AppProfile

# The engine-facing workload interface: the synthetic generator, the
# pattern-driven generator, or a trace replay (duck-typed elsewhere).
Workload = Union[VmWorkload, PatternWorkload]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import MetricsRecorder
    from repro.obs.tracer import Tracer
    from repro.sanitizer.core import CoherenceSanitizer

HYPERVISOR_SPACE = -10
"""Address-space id for the hypervisor's own (globally RW-shared) pages."""


class CoherenceBridge(PlacementListener):
    """Applies hypervisor page events to the coherence substrate.

    When a page becomes content-shared the hypervisor "flushes any
    modified cachelines of the page to the memory to ensure the memory
    has a clean page" (Section VI-A); this bridge performs that flush on
    the token registry and charges the writeback traffic.
    """

    def __init__(
        self,
        registry: TokenRegistry,
        memory_ctrl: MemoryController,
        network: NetworkModel,
        layout: AddressLayout,
        stats: SimStats,
        caches: Optional[Dict[int, PrivateHierarchy]] = None,
    ) -> None:
        self.registry = registry
        self.memory_ctrl = memory_ctrl
        self.network = network
        self.layout = layout
        self.stats = stats
        self.caches = caches if caches is not None else {}

    def on_page_shared(self, host_page: int) -> None:
        first_block = self.layout.block_in_page(host_page, 0)
        for block in range(first_block, first_block + self.layout.blocks_per_page):
            # The dirty data travels from the owner's cache; the flush
            # hands the owner token back to memory, so read it first.
            owner = self.registry.owner_of(block)
            if self.registry.flush_block_to_memory(block):
                self.memory_ctrl.writeback()
                self.stats.flush_writebacks += 1
                if owner != MEMORY:
                    self.network.send(
                        owner, self.memory_ctrl.node, MessageKind.WRITEBACK
                    )

    def on_cow(self, vm_id: int, old_host_page: int, new_host_page: int) -> None:
        self.stats.cow_events += 1

    def on_page_freed(self, host_page: int) -> None:
        """Flush every cached block of a freed host page.

        The allocator may recycle the page to another VM, and stale
        copies in foreign caches would break the VM-private invariant
        virtual snooping relies on — real hypervisors flush reassigned
        pages for the same reason.
        """
        first_block = self.layout.block_in_page(host_page, 0)
        for block in range(first_block, first_block + self.layout.blocks_per_page):
            # Sorted for the same reason as the protocol's invalidation
            # loop: the order reaches the removal log via the residence
            # observers, and must not depend on set table history.
            for core in sorted(self.registry.drop_block(block)):
                hierarchy = self.caches.get(core)
                if hierarchy is not None:
                    hierarchy.invalidate(block)


def compute_friends(
    memory: MemoryManager,
    vm_ids: List[int],
    stream_phases: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Pick each VM's *friend*: the VM it shares the most RO pages with.

    When several VMs tie on shared-page count (the common case for
    homogeneous consolidation, where every VM runs the same image), the
    tie breaks toward the VM with the closest content-stream phase —
    the one whose cached content overlaps the most *in time* — then
    toward the lowest id for determinism. VMs sharing nothing get no
    friend.
    """
    shared_counts: Dict[frozenset, int] = {}
    for _, sharers in memory.iter_shared_pages():
        for pair in combinations(sorted(sharers), 2):
            key = frozenset(pair)
            shared_counts[key] = shared_counts.get(key, 0) + 1

    def affinity(vm_id: int, other: int):
        count = shared_counts.get(frozenset((vm_id, other)), 0)
        phase_distance = 0
        if stream_phases and vm_id in stream_phases and other in stream_phases:
            phase_distance = abs(stream_phases[vm_id] - stream_phases[other])
        # Larger is better: more pages, then nearer phase, then lower id.
        return (count, -phase_distance, -other)

    friends: Dict[int, int] = {}
    for vm_id in vm_ids:
        others = [o for o in vm_ids if o != vm_id]
        if not others:
            continue
        best = max(others, key=lambda other: affinity(vm_id, other))
        if shared_counts.get(frozenset((vm_id, best)), 0) > 0:
            friends[vm_id] = best
    return friends


SNAPSHOT_FORMAT = 1
"""Layout version of the :meth:`SimulatedSystem.snapshot` state dict."""


def _capture_sets(sets) -> list:
    """Each cache set as an ordered ``(block, vm_id, dirty)`` list.

    The sets are dicts from block to tag whose insertion order *is* the
    LRU order, so a plain item walk captures recency exactly.
    """
    return [
        [(block, tag_vm(tag), tag_dirty(tag)) for block, tag in cache_set.items()]
        for cache_set in sets
    ]


def _restore_sets(sets, captured: list) -> None:
    """Refill the existing set dicts in place, preserving order.

    In place because the hierarchy's ``_l1_sets``/``_l2_sets`` aliases
    *are* the caches' own set lists — replacing the dicts would split
    them.
    """
    for cache_set, lines in zip(sets, captured):
        cache_set.clear()
        for block, vm_id, dirty in lines:
            cache_set[block] = make_tag(vm_id, dirty)


class SnapshotMismatch(ValueError):
    """A warm-state snapshot does not fit this system.

    Raised by :meth:`SimulatedSystem.restore` *before any mutation*, so a
    caller can fall back to a normal warm-up on the same system.
    """


@dataclass
class SimulatedSystem:
    """All components of one built simulation, ready for the engine."""

    config: SimConfig
    profile: AppProfile
    layout: AddressLayout
    topology: Topology
    network: NetworkModel
    memory_ctrl: MemoryController
    registry: TokenRegistry
    protocol: TokenProtocol
    caches: Dict[int, PrivateHierarchy]
    hypervisor: Hypervisor
    snoop_filter: PlacementListener  # VirtualSnoopFilter or RegionScoutFilter
    vms: List[VirtualMachine]
    workloads: Dict[int, Workload]
    stats: SimStats
    # Attached by repro.sanitizer.attach_sanitizer when config.sanitize.
    sanitizer: Optional["CoherenceSanitizer"] = field(default=None)
    # Attached by repro.obs.attach_observability when config.trace /
    # config.metrics_sample_every is set; the engine installs the
    # hot-path seams for whichever is present.
    tracer: Optional["Tracer"] = field(default=None)
    metrics: Optional["MetricsRecorder"] = field(default=None)

    # ------------------------------------------------------------------
    # Warm-state snapshots (the reuse layer; see repro.store).
    #
    # A snapshot is a plain-data dict (builtins all the way down, so it
    # pickles losslessly) of every piece of architectural state that the
    # warm-up phase mutates. Restoring transplants it into a *freshly
    # built* system for the same warmup fingerprint, mutating existing
    # containers in place — the engine and hierarchies hold direct
    # aliases (set lists, bound methods, stepper closures over cursor and
    # RNG objects), so object identities must survive.
    #
    # Deliberately NOT captured, because a fresh build is provably in the
    # post-warmup state already (DESIGN.md "Warm-state snapshot reuse"):
    #   * vCPU placement and the snoop-domain table — migrations are
    #     disabled during warm-up, so no placement ever changes and no
    #     domain entry is added or removed after construction; the
    #     domain/placement sanity stamps below verify this at restore.
    #   * the engine's migration RNG — it draws only when a migration
    #     fires, and migrations are measurement-only.
    #   * measurement counters (stats, network, memory controller, cache
    #     hit counters, removal/relocation logs) — the engine resets them
    #     at the warm-up/measurement boundary on both paths.
    # ------------------------------------------------------------------

    def snapshot(self, clocks: List[int]) -> dict:
        """Capture post-warmup architectural state as plain data.

        ``clocks`` are the per-vCPU cycle counts returned by the engine's
        warm-up phase; they are part of the state (measurement timing
        starts from them).
        """
        registry_blocks = [
            (
                block,
                cores_of(state.sharers),
                state.owner,
                state.dirty,
                list(state.providers.items()) if state.providers else [],
            )
            for block, state in self.registry.records()
        ]
        caches = {
            core: {
                "l1": _capture_sets(h._l1_sets),
                "l2": _capture_sets(h._l2_sets),
            }
            for core, h in self.caches.items()
        }
        if isinstance(self.snoop_filter, VirtualSnoopFilter):
            filter_state = {
                "residence": {
                    core: list(tracker._counts.items())
                    for core, tracker in self.snoop_filter.trackers.items()
                }
            }
            domains_version = self.snoop_filter.domains.version
        else:
            filter_state = self.snoop_filter.snapshot_state()
            domains_version = None
        memory = self.hypervisor.memory
        # Each workload captures its own mutable state (VmWorkload keeps
        # the historical dict shape, so pre-existing stored snapshots
        # stay restorable; PatternWorkload / TraceReplayWorkload carry
        # their own kinds).
        workloads = {
            vm_id: w.snapshot_state() for vm_id, w in self.workloads.items()
        }
        return {
            "format": SNAPSHOT_FORMAT,
            "clocks": list(clocks),
            # Sanity stamps: state a fresh build must already agree on.
            "placements": [
                (vcpu.vm_id, vcpu.index, vcpu.core)
                for vm in self.vms
                for vcpu in vm.vcpus
            ],
            "domains_version": domains_version,
            "caches": caches,
            "registry": registry_blocks,
            "filter": filter_state,
            "memory": {
                "tables": {
                    space: list(table.items())
                    for space, table in memory._tables.items()
                },
                "host_info": [
                    (page, info.page_type.value, info.owner_vm, sorted(info.sharer_vms))
                    for page, info in memory._host_info.items()
                ],
                "cow_faults": memory.cow_faults,
                "shared_pages_created": memory.shared_pages_created,
            },
            "content": {
                "labels": list(self.hypervisor.content._labels.items()),
                "scans": self.hypervisor.content.scans,
                "pages_merged": self.hypervisor.content.pages_merged,
            },
            "host": {
                "next_fresh": self.hypervisor.host._next_fresh,
                "free_list": list(self.hypervisor.host._free_list),
                "allocated": sorted(self.hypervisor.host._allocated),
            },
            "workloads": workloads,
        }

    def restore(self, state: dict) -> List[int]:
        """Transplant a :meth:`snapshot` capture into this (fresh) system.

        Returns the captured per-vCPU clocks. Existing containers are
        mutated in place; no component object is replaced. Measurement
        counters are *not* touched — the engine resets them at the
        measurement boundary exactly as it does after a real warm-up
        (see ``SimulationEngine.restore_warm``).

        Raises :class:`SnapshotMismatch` before any mutation when the
        snapshot provably does not belong to this system.
        """
        if state.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotMismatch(
                f"snapshot format {state.get('format')!r} != {SNAPSHOT_FORMAT}"
            )
        placements = [
            (vcpu.vm_id, vcpu.index, vcpu.core)
            for vm in self.vms
            for vcpu in vm.vcpus
        ]
        if state["placements"] != placements:
            raise SnapshotMismatch(
                "snapshot vCPU placement differs from the built system "
                "(warm-up is migration-free, so they must agree)"
            )
        is_vsnoop = isinstance(self.snoop_filter, VirtualSnoopFilter)
        if is_vsnoop:
            if state["domains_version"] != self.snoop_filter.domains.version:
                raise SnapshotMismatch(
                    f"snapshot domain-table version {state['domains_version']} "
                    f"!= built system's {self.snoop_filter.domains.version}"
                )
        if set(state["caches"]) != set(self.caches) or set(
            state["workloads"]
        ) != set(self.workloads):
            raise SnapshotMismatch("snapshot core/VM population differs")

        for core, captured in state["caches"].items():
            hierarchy = self.caches[core]
            _restore_sets(hierarchy._l1_sets, captured["l1"])
            _restore_sets(hierarchy._l2_sets, captured["l2"])
        self.registry.load(
            (block, mask_of(sharers), owner, dirty, dict(providers))
            for block, sharers, owner, dirty, providers in state["registry"]
        )
        if is_vsnoop:
            for core, counts in state["filter"]["residence"].items():
                tracker = self.snoop_filter.trackers[core]
                tracker._counts.clear()
                tracker._counts.update(counts)
            self.snoop_filter._plan_cache.clear()
            self.snoop_filter._plan_cache_version = self.snoop_filter.domains.version
        else:
            self.snoop_filter.restore_state(state["filter"])
        memory = self.hypervisor.memory
        captured_memory = state["memory"]
        for space, entries in captured_memory["tables"].items():
            table = memory._tables[space]
            table.clear()
            table.update(entries)
        memory._host_info.clear()
        for page, type_value, owner_vm, sharer_vms in captured_memory["host_info"]:
            memory._host_info[page] = HostPageInfo(
                page_type=PageType(type_value),
                owner_vm=owner_vm,
                sharer_vms=set(sharer_vms),
            )
        memory.cow_faults = captured_memory["cow_faults"]
        memory.shared_pages_created = captured_memory["shared_pages_created"]
        content = self.hypervisor.content
        content._labels.clear()
        content._labels.update(state["content"]["labels"])
        content.scans = state["content"]["scans"]
        content.pages_merged = state["content"]["pages_merged"]
        host = self.hypervisor.host
        host._next_fresh = state["host"]["next_fresh"]
        host._free_list[:] = state["host"]["free_list"]
        host._allocated.clear()
        host._allocated.update(state["host"]["allocated"])
        for vm_id, captured in state["workloads"].items():
            self.workloads[vm_id].restore_state(captured)
        return list(state["clocks"])


def build_system(config: SimConfig, profile: AppProfile) -> SimulatedSystem:
    """Construct and wire a full system running ``profile`` in every VM.

    The paper's Section V/VI setup runs the same application in all VMs;
    the initial placement is contiguous (VM *i* on cores
    ``i*vcpus .. (i+1)*vcpus - 1``).
    """
    layout = AddressLayout(block_size=config.block_size)
    topology = build_topology(config)
    sizing = FlitSizing(link_bytes=config.link_bytes, block_bytes=config.block_size)
    network = NetworkModel(
        topology,
        sizing,
        router_latency=config.router_latency,
        link_latency=config.link_latency,
    )
    memory_ctrl = MemoryController(latency=config.memory_latency, node=config.memory_node)
    registry = TokenRegistry()
    stats = SimStats()

    def sync_vcpu_maps(vm_id: int, domain) -> None:
        # The hypervisor core multicasts the new map to every core in it.
        network.multicast(config.memory_node, domain, MessageKind.VCPU_MAP_UPDATE)

    if config.filter_kind == "regionscout":
        from repro.baselines.regionscout import RegionScoutFilter

        snoop_filter = RegionScoutFilter(
            config.num_cores, region_blocks=config.region_blocks
        )
    else:
        snoop_filter = VirtualSnoopFilter(
            config.num_cores,
            policy=config.snoop_policy,
            content_policy=config.content_policy,
            counter_threshold=config.counter_threshold,
            sync_hook=sync_vcpu_maps,
        )
    caches = {
        core: PrivateHierarchy(
            core,
            l1_size=config.l1_size,
            l1_ways=config.l1_ways,
            l2_size=config.l2_size,
            l2_ways=config.l2_ways,
            block_size=config.block_size,
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            l2_observer=snoop_filter.trackers[core],
        )
        for core in range(config.num_cores)
    }
    protocol = TokenProtocol(
        registry,
        network,
        memory_ctrl,
        caches,
        stats=stats.coherence,
        snoop_lookup_latency=config.l2_latency,
    )

    hypervisor = Hypervisor(config.num_cores, host_pages=config.host_pages)
    hypervisor.add_listener(snoop_filter)
    bridge = CoherenceBridge(registry, memory_ctrl, network, layout, stats, caches)
    hypervisor.add_listener(bridge)
    hypervisor.memory.page_free_hook = bridge.on_page_freed
    hypervisor.memory.create_address_space(HYPERVISOR_SPACE)
    hypervisor.memory.create_address_space(DOM0_VM_ID)

    vms = [hypervisor.create_vm(config.vcpus_per_vm) for _ in range(config.num_vms)]
    for vm_index, vm in enumerate(vms):
        for vcpu in vm.vcpus:
            core = vm_index * config.vcpus_per_vm + vcpu.index
            hypervisor.place_vcpu(vcpu, core)

    workloads: Dict[int, Workload]
    if config.pattern is not None or config.suite is not None:
        # Pattern/suite configs swap the calibrated generator for the
        # composable pattern workloads; everything downstream (content
        # registration, friends, the engine) sees the same interface.
        from repro.workloads.pattern_workload import workloads_for_config

        workloads = workloads_for_config(config, vms)
    else:
        workloads = {
            vm.vm_id: VmWorkload(
                profile,
                vm.vm_id,
                config.vcpus_per_vm,
                seed=config.seed,
                include_hypervisor=config.hypervisor_activity_enabled,
                working_set_scale=config.working_set_scale,
                coverage_accesses=max(config.warmup_accesses_per_vcpu, 1000),
            )
            for vm in vms
        }
    if config.content_sharing_enabled:
        for vm in vms:
            hypervisor.content.register_many(
                vm.vm_id, workloads[vm.vm_id].content_pages()
            )
        hypervisor.share_identical_pages()
        if isinstance(snoop_filter, VirtualSnoopFilter):
            phases = {
                vm_id: workload.content_stream_phase
                for vm_id, workload in workloads.items()
            }
            friends = compute_friends(
                hypervisor.memory, [vm.vm_id for vm in vms], stream_phases=phases
            )
            for vm_id, friend in friends.items():
                snoop_filter.set_friend(vm_id, friend)

    system = SimulatedSystem(
        config=config,
        profile=profile,
        layout=layout,
        topology=topology,
        network=network,
        memory_ctrl=memory_ctrl,
        registry=registry,
        protocol=protocol,
        caches=caches,
        hypervisor=hypervisor,
        snoop_filter=snoop_filter,
        vms=vms,
        workloads=workloads,
        stats=stats,
    )
    if config.sanitize:
        from repro.sanitizer import attach_sanitizer

        attach_sanitizer(system, mode=config.sanitize_mode)
    if config.trace is not None or config.metrics_sample_every is not None:
        from repro.obs import attach_observability

        attach_observability(
            system,
            trace_path=config.trace,
            trace_format=config.trace_format,
            metrics_sample_every=config.metrics_sample_every,
        )
    return system
