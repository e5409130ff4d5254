"""The virtual-snooping filter: policies that turn a miss into a plan.

This is the paper's contribution glued together: the
:class:`SnoopDomainTable` (vCPU maps), the per-core
:class:`ResidenceTracker` counters, and the policy logic that chooses a
destination set for every coherence transaction based on the page's
sharing type:

* ``VM_PRIVATE``  → multicast to the requesting VM's snoop domain,
* ``RW_SHARED``   → broadcast (hypervisor / inter-VM channel data),
* ``RO_SHARED``   → one of the Section VI content policies.

Four snoop policies are modelled, matching the evaluation:

* ``BROADCAST`` — the TokenB baseline, everything broadcast.
* ``VSNOOP_BASE`` — filter by vCPU map, never remove old cores.
* ``VSNOOP_COUNTER`` — remove a core when its residence counter for the
  VM reaches zero.
* ``VSNOOP_COUNTER_THRESHOLD`` — speculatively remove below a threshold
  (default 10, as in the paper); transactions then carry the TokenB
  retry plan (map, map, broadcast-persistent).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, FrozenSet, Optional

from repro.coherence.plan import RequestPlan
from repro.coherence.registry import GLOBAL_PROVIDER
from repro.core.domains import SnoopDomainTable
from repro.core.residence import ResidenceTracker
from repro.hypervisor.hypervisor import PlacementListener
from repro.mem.pagetype import PageType

EMPTY: FrozenSet[int] = frozenset()


class SnoopPolicy(Enum):
    BROADCAST = "broadcast"
    VSNOOP_BASE = "vsnoop-base"
    VSNOOP_COUNTER = "counter"
    VSNOOP_COUNTER_THRESHOLD = "counter-threshold"

    @property
    def uses_counters(self) -> bool:
        return self in (
            SnoopPolicy.VSNOOP_COUNTER,
            SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
        )


class ContentPolicy(Enum):
    BROADCAST = "vsnoop-broadcast"
    MEMORY_DIRECT = "memory-direct"
    INTRA_VM = "intra-vm"
    FRIEND_VM = "friend-vm"


class VirtualSnoopFilter(PlacementListener):
    """Produces a :class:`RequestPlan` for every coherence transaction."""

    def __init__(
        self,
        num_cores: int,
        policy: SnoopPolicy = SnoopPolicy.VSNOOP_COUNTER,
        content_policy: ContentPolicy = ContentPolicy.BROADCAST,
        counter_threshold: int = 10,
        sync_hook: Optional[Callable[[int, FrozenSet[int]], None]] = None,
        clock: Optional[Callable[[], int]] = None,
    ) -> None:
        if counter_threshold < 1:
            raise ValueError(f"counter_threshold must be >= 1, got {counter_threshold}")
        self.num_cores = num_cores
        self.policy = policy
        self.content_policy = content_policy
        self.counter_threshold = counter_threshold
        self.domains = SnoopDomainTable(num_cores, sync_hook)
        if clock is not None:
            self.domains.clock = clock
        self.all_cores: FrozenSet[int] = frozenset(range(num_cores))
        # Residence counters fire at the policy's removal watermark:
        # zero for `counter`, threshold-1 for `counter-threshold`
        # ("becomes under a threshold" = count < threshold). Policies
        # without counter-driven removal install no hook at all.
        watermark = 0
        if policy is SnoopPolicy.VSNOOP_COUNTER_THRESHOLD:
            watermark = counter_threshold - 1
        on_low = self.domains.removal_hook() if policy.uses_counters else None
        self.trackers: Dict[int, ResidenceTracker] = {
            core: ResidenceTracker(core, watermark, on_low)
            for core in range(num_cores)
        }
        self._friends: Dict[int, int] = {}
        # Memoised plans keyed by (core, vm_id, page_type). Plans depend
        # only on those three inputs plus the snoop-domain table and the
        # friend map; the cache is invalidated whenever either changes
        # (the table carries a version epoch bumped on every map edit).
        self._plan_cache: Dict[tuple, RequestPlan] = {}
        self._plan_cache_version = self.domains.version

    @property
    def clock(self) -> Callable[[], int]:
        """The cycle source; kept on the domain table, which stamps removals."""
        return self.domains.clock

    @clock.setter
    def clock(self, clock: Callable[[], int]) -> None:
        self.domains.clock = clock

    # ------------------------------------------------------------------
    # Friend-VM configuration.
    # ------------------------------------------------------------------

    def set_friend(self, vm_id: int, friend_vm_id: int) -> None:
        """Designate the VM sharing the most content pages with ``vm_id``."""
        if vm_id == friend_vm_id:
            raise ValueError("a VM cannot be its own friend")
        self._friends[vm_id] = friend_vm_id
        self._plan_cache.clear()

    def friend_of(self, vm_id: int) -> Optional[int]:
        return self._friends.get(vm_id)

    # ------------------------------------------------------------------
    # Plan construction.
    # ------------------------------------------------------------------

    def plan(
        self,
        core: int,
        vm_id: int,
        page_type: PageType,
        block: Optional[int] = None,
    ) -> RequestPlan:
        """Destination plan for a transaction by ``vm_id`` on ``core``.

        ``block`` is part of the shared filter interface (region-based
        baselines key on it); virtual snooping filters purely on the VM
        and the page's sharing type — which makes plans memoisable per
        (core, vm_id, page_type) until a vCPU map or the friend table
        changes.
        """
        version = self.domains.version
        if version != self._plan_cache_version:
            self._plan_cache.clear()
            self._plan_cache_version = version
        key = (core, vm_id, page_type)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._build_plan(core, vm_id, page_type)
            self._plan_cache[key] = plan
        return plan

    def _build_plan(
        self, core: int, vm_id: int, page_type: PageType
    ) -> RequestPlan:
        if self.policy is SnoopPolicy.BROADCAST:
            if page_type is PageType.RO_SHARED:
                return self._ro_plan(core, vm_id, (self.all_cores,), (GLOBAL_PROVIDER,))
            return RequestPlan.broadcast(self.all_cores, page_type)
        if page_type is PageType.RW_SHARED:
            return RequestPlan(attempts=(self.all_cores,), page_type=page_type)
        if page_type is PageType.RO_SHARED:
            return self._content_plan(core, vm_id)
        # VM-private: multicast within the snoop domain.
        domain = self.domains.domain(vm_id)
        if not domain:
            domain = frozenset((core,))
        if domain == self.all_cores:
            return RequestPlan(attempts=(self.all_cores,), page_type=page_type)
        if self.policy is SnoopPolicy.VSNOOP_COUNTER_THRESHOLD:
            # Speculative removal needs TokenB's safe retries: two transient
            # attempts inside the domain, then a broadcast persistent request.
            return RequestPlan(
                attempts=(domain, domain, self.all_cores),
                page_type=page_type,
                last_is_persistent=True,
            )
        return RequestPlan(attempts=(domain,), page_type=page_type)

    def _content_plan(self, core: int, vm_id: int) -> RequestPlan:
        domain = self.domains.domain(vm_id) or frozenset((core,))
        if self.content_policy is ContentPolicy.MEMORY_DIRECT:
            return self._ro_plan(core, vm_id, (EMPTY,), ())
        if self.content_policy is ContentPolicy.INTRA_VM:
            return self._ro_plan(core, vm_id, (domain,), (vm_id,))
        if self.content_policy is ContentPolicy.FRIEND_VM:
            friend = self._friends.get(vm_id)
            if friend is None:
                return self._ro_plan(core, vm_id, (domain,), (vm_id,))
            merged = frozenset(domain | self.domains.domain(friend))
            return self._ro_plan(core, vm_id, (merged,), (vm_id, friend))
        return self._ro_plan(core, vm_id, (self.all_cores,), (GLOBAL_PROVIDER,))

    def _ro_plan(self, core, vm_id, attempts, provider_vms) -> RequestPlan:
        friend = self._friends.get(vm_id)
        return RequestPlan(
            attempts=attempts,
            page_type=PageType.RO_SHARED,
            provider_vms=provider_vms,
            stats_intra_domain=self.domains.domain(vm_id),
            stats_friend_domain=(
                self.domains.domain(friend) if friend is not None else EMPTY
            ),
        )

    # ------------------------------------------------------------------
    # PlacementListener interface (driven by the hypervisor).
    # ------------------------------------------------------------------

    def on_vcpu_placed(self, vm_id: int, core: int) -> None:
        self.domains.vcpu_placed(vm_id, core, self.domains.clock())

    def on_vcpu_displaced(self, vm_id: int, core: int) -> None:
        cycle = self.domains.clock()
        self.domains.vcpu_displaced(vm_id, core, cycle)
        # If the counter is already at/below the watermark the core can be
        # dropped immediately (e.g. the VM never cached anything here).
        if self.policy.uses_counters and self.trackers[core].below_threshold(vm_id):
            self.domains.try_remove(vm_id, core, cycle)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def average_domain_size(self, vm_ids) -> float:
        sizes = [self.domains.domain_size(vm) for vm in vm_ids]
        return sum(sizes) / len(sizes) if sizes else 0.0
