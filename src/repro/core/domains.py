"""vCPU map registers — the virtual snoop domains.

Each core holds a *vCPU map register*: an n-bit vector naming every core
the currently-running VM must snoop (Figure 4). All cores of a VM hold
identical maps, synchronised by the hypervisor with update messages whose
latency is comparable to a snoop round-trip. This module models the maps
as one authoritative table (vm → core set) plus the synchronisation
traffic, which is what the evaluation observes.

The table distinguishes the cores a VM is *running on* from the cores in
its *snoop domain*: after a migration the old core stays in the domain
("the old core cannot be removed from the vCPU map, since it may contain
the data of the VM") until the residence machinery clears it.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.clock import SimClock


class RemovalRecord:
    """One old-core removal, for the Figure 9 CDF."""

    __slots__ = ("vm_id", "core", "displaced_cycle", "removed_cycle")

    def __init__(self, vm_id: int, core: int, displaced_cycle: int, removed_cycle: int) -> None:
        self.vm_id = vm_id
        self.core = core
        self.displaced_cycle = displaced_cycle
        self.removed_cycle = removed_cycle

    @property
    def period(self) -> int:
        """Cycles from vCPU displacement to vCPU-map removal."""
        return self.removed_cycle - self.displaced_cycle


#: Default bound on RemovalRecords kept in memory. Soak runs churn maps
#: indefinitely; past this the table keeps exact counts of what was
#: dropped (and streams every removal through ``map_hook``) instead of
#: growing without bound.
DEFAULT_MAX_REMOVAL_LOG = 100_000

MapHook = Callable[[int, int, bool, int, int, int], None]
"""Callback (vm_id, core, grew, new_size, cycle, period) per map change."""


class SnoopDomainTable:
    """Authoritative vm → snoop-domain mapping with sync-cost accounting.

    ``sync_hook``, when provided, is called with (vm_id, new_domain) on
    every map change so the caller can charge vCPU-map update messages to
    the network. ``map_hook`` is the observability tap: called with
    (vm_id, core, grew, new_size, cycle, period) on every grow/shrink,
    where ``period`` is the Figure 9 displacement-to-removal time on
    shrink (0 otherwise). Unlike ``removal_log`` — bounded at
    ``max_removal_log`` records, overflow counted in
    ``removal_log_dropped`` — the hook sees every removal, so streaming
    consumers stay exact on unbounded runs.

    ``clock`` stamps residence-driven removals (see
    :meth:`removal_hook`); the engine replaces it with its own
    :class:`~repro.core.clock.SimClock`.
    """

    def __init__(
        self,
        num_cores: int,
        sync_hook: Optional[Callable[[int, FrozenSet[int]], None]] = None,
        max_removal_log: int = DEFAULT_MAX_REMOVAL_LOG,
    ) -> None:
        self.num_cores = num_cores
        self.all_cores: FrozenSet[int] = frozenset(range(num_cores))
        self._domains: Dict[int, Set[int]] = {}
        self._running: Dict[int, Dict[int, int]] = {}  # vm -> {core -> #vcpus}
        self._sync_hook = sync_hook
        self._pending_since: Dict[Tuple[int, int], int] = {}
        self.removal_log: List[RemovalRecord] = []
        self.max_removal_log = max_removal_log
        self.removal_log_dropped = 0
        self.map_hook: Optional[MapHook] = None
        self.clock: Callable[[], int] = SimClock()
        self.map_updates = 0
        # Monotonic epoch, bumped on every domain-content change. Plan
        # caches key their validity on it: any vCPU placement, removal or
        # other map edit invalidates memoised destination sets.
        self.version = 0

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def domain(self, vm_id: int) -> FrozenSet[int]:
        """The VM's current snoop domain (empty if never scheduled)."""
        return frozenset(self._domains.get(vm_id, ()))

    def domain_size(self, vm_id: int) -> int:
        return len(self._domains.get(vm_id, ()))

    def is_running_on(self, vm_id: int, core: int) -> bool:
        return self._running.get(vm_id, {}).get(core, 0) > 0

    # ------------------------------------------------------------------
    # Placement-driven updates.
    # ------------------------------------------------------------------

    def vcpu_placed(self, vm_id: int, core: int, cycle: int = 0) -> None:
        """A vCPU of ``vm_id`` was scheduled onto ``core``."""
        running = self._running.setdefault(vm_id, {})
        running[core] = running.get(core, 0) + 1
        self._pending_since.pop((vm_id, core), None)
        domain = self._domains.setdefault(vm_id, set())
        if core not in domain:
            domain.add(core)
            self._notify(vm_id)
            if self.map_hook is not None:
                self.map_hook(vm_id, core, True, len(domain), cycle, 0)

    def vcpu_displaced(self, vm_id: int, core: int, cycle: int = 0) -> None:
        """A vCPU of ``vm_id`` left ``core``; the core stays in the domain.

        Starts the Figure 9 removal clock if no other vCPU of the VM still
        occupies the core.
        """
        running = self._running.get(vm_id, {})
        count = running.get(core, 0)
        if count <= 1:
            running.pop(core, None)
            if core in self._domains.get(vm_id, ()):
                self._pending_since[(vm_id, core)] = cycle
        else:
            running[core] = count - 1

    # ------------------------------------------------------------------
    # Residence-driven removal.
    # ------------------------------------------------------------------

    def try_remove(self, vm_id: int, core: int, cycle: int = 0) -> bool:
        """Remove ``core`` from the VM's domain if the VM is not running
        there. Returns whether a removal happened."""
        if self.is_running_on(vm_id, core):
            return False
        domain = self._domains.get(vm_id)
        if domain is None or core not in domain:
            return False
        domain.remove(core)
        started = self._pending_since.pop((vm_id, core), None)
        if started is not None:
            if len(self.removal_log) < self.max_removal_log:
                self.removal_log.append(RemovalRecord(vm_id, core, started, cycle))
            else:
                self.removal_log_dropped += 1
        self._notify(vm_id)
        if self.map_hook is not None:
            period = cycle - started if started is not None else 0
            self.map_hook(vm_id, core, False, len(domain), cycle, period)
        return True

    def removal_hook(self) -> Callable[[int, int, int], None]:
        """A residence tracker's ``on_low`` hook: try to drop the core.

        A closure over this table only, never over the filter: the
        filter owns the trackers, so a hook into it would tie the two
        into a reference cycle.
        """
        try_remove = self.try_remove

        def on_low(core: int, vm_id: int, count: int) -> None:
            try_remove(vm_id, core, self.clock())

        return on_low

    def _notify(self, vm_id: int) -> None:
        self.version += 1
        self.map_updates += 1
        if self._sync_hook is not None:
            self._sync_hook(vm_id, self.domain(vm_id))
