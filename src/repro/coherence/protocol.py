"""Token-coherence protocol engine (TokenB with filtered destination sets).

The engine executes one coherence transaction at a time, trace-driven:

1. For each transient attempt in the :class:`RequestPlan`, snoop the
   destination cores (counted as tag lookups), always informing the
   memory controller.
2. A GETS succeeds when the attempt reaches the owner token (a cache
   owner inside the destination set, or memory). A GETM succeeds when it
   reaches *every* token holder, i.e. all sharers are inside the set.
3. A failed attempt is retried with the next destination set; reaching
   the final attempt of a fallback-capable plan models TokenB's
   persistent-request escalation.

Content-shared (RO) reads are special-cased per Section VI: memory always
holds a clean copy, so they can never fail; data comes from a per-VM
provider copy when one is inside the destination set, else from memory.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.hierarchy import PrivateHierarchy
from repro.coherence.plan import RequestPlan
from repro.coherence.registry import MEMORY, TokenRegistry
from repro.coherence.stats import CoherenceStats
from repro.interconnect.messages import MessageKind
from repro.interconnect.network import NetworkModel
from repro.mem.controller import MemoryController


class ProtocolError(RuntimeError):
    """A transaction exhausted all attempts — a filter correctness bug."""


class TransactionResult:
    """Outcome of one coherence transaction."""

    __slots__ = ("latency", "attempts_used", "source", "fill_dirty")

    SOURCE_CACHE = "cache"
    SOURCE_MEMORY = "memory"
    SOURCE_NONE = "none"  # upgrade: requester already held the data

    def __init__(self, latency: int, attempts_used: int, source: str, fill_dirty: bool) -> None:
        self.latency = latency
        self.attempts_used = attempts_used
        self.source = source
        self.fill_dirty = fill_dirty

    def __repr__(self) -> str:
        return (
            f"TransactionResult({self.latency}cyc, attempts={self.attempts_used}, "
            f"source={self.source})"
        )


class TokenProtocol:
    """Executes coherence transactions against the registry and network."""

    def __init__(
        self,
        registry: TokenRegistry,
        network: NetworkModel,
        memory: MemoryController,
        caches: Dict[int, PrivateHierarchy],
        stats: Optional[CoherenceStats] = None,
        snoop_lookup_latency: int = 10,
    ) -> None:
        self.registry = registry
        self.network = network
        self.memory = memory
        self.caches = caches
        self.stats = stats if stats is not None else CoherenceStats()
        self.snoop_lookup_latency = snoop_lookup_latency

    # ------------------------------------------------------------------
    # Latency helpers (no traffic recording).
    # ------------------------------------------------------------------

    def _path(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        network = self.network
        return (
            network.hops(src, dst) * network._per_hop
            + network.contention_delay()
        )

    def _memory_read_latency(self, core: int, cycle: int) -> int:
        """Request to the memory node, DRAM access, data back (with traffic)."""
        node = self.memory.node
        send = self.network.send
        return (
            send(core, node, MessageKind.REQUEST, cycle)
            + self.memory.read()
            + send(node, core, MessageKind.DATA, cycle)
        )

    # ------------------------------------------------------------------
    # Transaction execution.
    # ------------------------------------------------------------------

    def execute(
        self,
        core: int,
        vm_id: int,
        block: int,
        is_write: bool,
        plan: RequestPlan,
        cycle: int = 0,
    ) -> TransactionResult:
        """Run one coherence transaction; returns its outcome.

        Raises :class:`ProtocolError` if every attempt fails — by
        construction that can only happen when a filter policy removed a
        core from a vCPU map while it still held data *and* supplied no
        broadcast fallback, which is a correctness bug worth failing
        loudly on.
        """
        stats = self.stats
        page_type = plan.page_type
        stats.record_transaction(page_type, is_write)
        if plan.ro_shared and not is_write:
            self._record_ro_holders(core, block, plan)
        total_latency = 0
        attempts = plan.attempts
        last = len(attempts) - 1
        multicast = self.network.multicast
        for index, destinations in enumerate(attempts):
            stats.record_snoops(len(destinations), page_type)
            if index == last and index > 0 and plan.last_is_persistent:
                stats.persistent_requests += 1
            # The request multicast (cores) + the memory controller copy.
            attempt_latency = multicast(core, destinations, MessageKind.REQUEST, cycle)
            if is_write:
                outcome = self._try_getm(core, block, destinations, cycle)
            elif plan.ro_shared:
                outcome = self._try_ro_gets(core, vm_id, block, destinations, plan, cycle)
            else:
                outcome = self._try_gets(core, vm_id, block, destinations, cycle)
            if outcome is not None:
                completion, source, fill_dirty = outcome
                total_latency += max(attempt_latency, completion)
                return TransactionResult(total_latency, index + 1, source, fill_dirty)
            total_latency += max(
                attempt_latency, self.snoop_lookup_latency
            )
            stats.retries += 1
        raise ProtocolError(
            f"transaction for block {block:#x} (write={is_write}) failed all "
            f"{len(plan.attempts)} attempts — sharers "
            f"{sorted(self.registry.sharers_of(block))} never fully covered"
        )

    def _try_gets(self, core, vm_id, block, destinations, cycle):
        owner = self.registry.owner_of(block)
        if owner == MEMORY:
            latency = self._memory_read_latency(core, cycle)
            self.stats.memory_sourced += 1
            if not self.registry.is_cached_anywhere(block):
                # MOESI E state: the sole copy receives all tokens clean,
                # so a subsequent first store upgrades silently.
                self.registry.grant_exclusive(core, block, dirty=False)
            else:
                self.registry.grant_shared(core, block)
            return latency, TransactionResult.SOURCE_MEMORY, False
        if owner in destinations:
            latency = (
                self._path(core, owner)
                + self.snoop_lookup_latency
                + self.network.send(owner, core, MessageKind.DATA, cycle)
            )
            self.stats.cache_to_cache += 1
            self.registry.grant_shared(core, block)
            return latency, TransactionResult.SOURCE_CACHE, False
        return None

    def _try_ro_gets(self, core, vm_id, block, destinations, plan, cycle):
        # Content-shared reads never fail: memory is guaranteed clean.
        providers = []
        for provider_vm in plan.provider_vms:
            provider = self.registry.provider_for_vm(block, provider_vm)
            if provider is not None and provider in destinations and provider != core:
                providers.append(provider)
        if providers:
            # Every reachable provider responds (the friend-VM scheme can
            # deliver a duplicate copy — both are charged as traffic).
            latency = None
            for provider in providers:
                leg = (
                    self._path(core, provider)
                    + self.snoop_lookup_latency
                    + self.network.send(provider, core, MessageKind.DATA, cycle)
                )
                latency = leg if latency is None else min(latency, leg)
            self.stats.cache_to_cache += 1
            self.stats.ro_served_by_cache += 1
            self.registry.grant_shared(core, block, vm_id=vm_id)
            return latency, TransactionResult.SOURCE_CACHE, False
        latency = self._memory_read_latency(core, cycle)
        self.stats.memory_sourced += 1
        self.stats.ro_served_by_memory += 1
        self.registry.grant_shared(core, block, vm_id=vm_id)
        return latency, TransactionResult.SOURCE_MEMORY, False

    def _try_getm(self, core, block, destinations, cycle):
        sharers = self.registry.sharers_of(block)
        owner = self.registry.owner_of(block)
        # Success requires every token holder besides the requester (the
        # sharers and a cache owner) to be inside the destination set.
        if not (sharers - {core}) <= destinations:
            return None
        if owner != MEMORY and owner != core and owner not in destinations:
            return None
        had_copy = core in sharers
        victims = self.registry.grant_exclusive(core, block)
        data_latency = 0
        source = TransactionResult.SOURCE_NONE
        if not had_copy:
            if owner == MEMORY:
                data_latency = self._memory_read_latency(core, cycle)
                self.stats.memory_sourced += 1
                source = TransactionResult.SOURCE_MEMORY
            else:
                data_latency = (
                    self._path(core, owner)
                    + self.snoop_lookup_latency
                    + self.network.send(owner, core, MessageKind.DATA, cycle)
                )
                self.stats.cache_to_cache += 1
                source = TransactionResult.SOURCE_CACHE
        else:
            self.stats.upgrades += 1
        ack_latency = 0
        # Sorted: the invalidations fire observer chains (residence
        # counters -> vCPU-map removals) whose event order is visible in
        # the removal log; iterating the set raw would tie that order to
        # the set's internal table history, which a warm-state restore
        # cannot reproduce. Contents-determined order keeps straight and
        # restored runs bit-identical.
        for victim in sorted(victims):
            hierarchy = self.caches.get(victim)
            if hierarchy is not None:
                hierarchy.invalidate(block)
            self.stats.invalidations += 1
            ack_latency = max(
                ack_latency,
                self._path(core, victim)
                + self.snoop_lookup_latency
                + self.network.send(victim, core, MessageKind.ACK, cycle),
            )
        return max(data_latency, ack_latency), source, True

    def _record_ro_holders(self, core: int, block: int, plan: RequestPlan) -> None:
        """Table VI bookkeeping: where *could* this RO miss have been served?"""
        self.stats.ro_misses += 1
        holders = self.registry.sharers_of(block) - {core}
        if not holders:
            self.stats.ro_holder_memory_only += 1
            return
        self.stats.ro_holder_any_cache += 1
        if holders & plan.stats_intra_domain:
            self.stats.ro_holder_intra_vm += 1
        elif holders & plan.stats_friend_domain:
            self.stats.ro_holder_friend_vm += 1

    # ------------------------------------------------------------------
    # Evictions (replacement victims leaving an L2).
    # ------------------------------------------------------------------

    def handle_eviction(
        self, core: int, block: int, dirty: bool, cycle: int = 0
    ) -> None:
        """Return the victim's tokens (and dirty data) to memory."""
        outcome = self.registry.evicted(core, block, dirty)
        if outcome == "writeback":
            self.memory.writeback()
            self.network.send(core, self.memory.node, MessageKind.WRITEBACK, cycle)
        elif outcome == "token_return":
            self.memory.return_tokens()
            self.network.send(core, self.memory.node, MessageKind.TOKEN_RETURN, cycle)
