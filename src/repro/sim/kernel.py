"""The batched fast-path simulation kernel.

:class:`BatchedEngine` replays the *exact* sequential semantics of
:meth:`repro.sim.engine.SimulationEngine._run_phase` — same heap order,
same RNG draw order, same mutation order, same counters — while removing
nearly every Python function call from the fast path (the L1/L2 hits
that dominate the access mix, per the paper's Figure 1 premise). It is
bit-identical to the reference loop *by construction*, and the golden
corpus, the snapshot differential suite and the kernel differential
tests prove it byte-for-byte.

One generation path: every vCPU draws its next access through the
reference engine's own per-access stepper closure
(``SimulationEngine._steppers``), so both engines consume each
workload's RNG draws in the identical, engine-interleaved order. The
loop around it is still batched control flow with a call-free body.

Every access makes one decision, as in the reference ``_step``: after
the L1/L2 probe, a miss or a store hit that is not silent reaches the
loop's single coherence-transaction site. Every coherence-visible event
— that transaction, COW, a migration window, a metrics sample — goes to
the same reference machinery (``self._transact``,
``self._maybe_migrate``, ``metrics.sample``), so the sanitizer, the
tracer and every observer see an unchanged event stream. One exception,
and only when no observer is attached: the *bulk-miss seam* commits a
transaction inline whenever its first transient attempt succeeds
against current registry state — a private or RW-shared miss, an
RO-shared content read (provider scan and Table VI bookkeeping
included), a contended GETM with its invalidations, or an L1/L2-hit
store upgrade — whatever its replacement victim (dirty, another VM's,
or an untracked hypervisor/dom0 line). The seam replays the reference
path's state mutations in their exact order; only a failed first
attempt (a retry ladder) still bails to ``_transact``. A per-reason
bail-out histogram (``BatchedEngine.bail_reasons``) records why
transactions stayed on the reference path; it lives on the engine,
never on ``SimStats``, which stays byte-identical across kernels by
contract. The seam holds no branch for a case no run reaches (an
RO-shared store, a read miss by the block's owner, a resident victim
the registry does not list, a provider table on a cache-owned block):
``tests/sim/test_kernel_reachability.py`` fails when a line of the
loop, the seam or its flush goes unexecuted.

Stats-ordering invariant: whenever a counter can be read (a metrics
sample, the end of a phase), it holds exactly the value the reference
loop gives it. The loop updates counters in the reference order; the
only rewrites are call-free spellings of identical operations (``in`` +
subscript for ``dict.get``, ``del d[k]; d[k] = v`` for the LRU touch,
shifts and masks on the registry's packed values, with one comparison
against the core's sole-owner value for "this core holds every token",
hoisted geometry constants, per-core set lists and per-core hop
arithmetic to the memory controller, the phase budget carried inside
the heap tuples, and ``heapreplace``/local-min scheduling that provably
pops the same (time, seq) sequence as push-then-pop). One deliberate
exception: the bulk-miss seam defers its per-transaction counters
(transactions and snoops, by initiator and page type, and the GETS and
GETM counts) to per-transaction-class tallies, and its traffic totals
(the network's messages, flit-hops and bytes) to phase-local sums. It
adds them to the stats and the network before each metrics sample,
before its plan memo is dropped and when the phase ends, even by an
exception. Nothing reads them in between: the sanitizer and the tracer,
which read counters mid-phase, turn the seam off. The utilisation
window's flit-hops stay live, since the window's roll reads them, and
the seam recomputes the contention term only when the window rolls.

Allocation: a cache line is an int tag in its set dict
(:mod:`repro.cache.line`: VM id and dirty bit), and a block's token
state is one int in the registry (:mod:`repro.coherence.registry`:
sharers, owner, dirty bit), so fills, promotes, grants and dirty marks
allocate nothing beyond a dict slot. A block held by its sole owner,
nearly every record, is a small int CPython preallocates.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heapreplace
from typing import Dict, List, Tuple

from repro.coherence.registry import (
    GLOBAL_PROVIDER,
    MEMORY,
    OWNER_FIELD,
    SHARER_SHIFT,
    mask_of,
    sole_owner,
)
from repro.core.filter import VirtualSnoopFilter
from repro.core.residence import UNTRACKED_VM, ResidenceTracker
from repro.hypervisor.vm import DOM0_VM_ID
from repro.interconnect.messages import MessageKind
from repro.mem.pagetype import PageType
from repro.sim.engine import SimulationEngine
from repro.sim.system import HYPERVISOR_SPACE, SimulatedSystem
from repro.workloads.trace import Initiator

# Environment override for SimConfig.kernel == "auto" (CI differential
# jobs force a kernel across a whole suite without touching configs).
_KERNEL_ENV = "REPRO_KERNEL"


def engine_for(system: SimulatedSystem) -> SimulationEngine:
    """The engine selected by ``config.kernel`` (and ``REPRO_KERNEL``).

    ``reference``/``batched`` are explicit and always honoured. ``auto``
    resolves via the ``REPRO_KERNEL`` environment override if set,
    otherwise to the batched kernel — with or without the sanitizer or
    tracer attached: the bail-out seams feed them the identical event
    stream, and the bulk-miss seam is gated off under them.
    """
    kind = getattr(system.config, "kernel", "auto")
    if kind == "auto":
        kind = os.environ.get(_KERNEL_ENV)
    if kind == "reference":
        return SimulationEngine(system)
    return BatchedEngine(system)


# Exists only because bench/spans.py wraps it as a trace seam; deleted
# by the next benchmark change, which drops the workloads.word_* seams.
def _encode(words, enc):
    raise RuntimeError("word path removed")


class BatchedEngine(SimulationEngine):
    """Drop-in engine with the batched `_run_phase` (see module docs)."""

    def __init__(self, system: SimulatedSystem) -> None:
        super().__init__(system)
        # Bulk-miss seam diagnostics. Engine-level on purpose, never on
        # SimStats: stats stay byte-identical across kernels by
        # contract. The histogram answers "why did a transaction stay
        # on the reference path" (repro-sim profile, campaign
        # manifests).
        self.bulk_transacts = 0
        self.bail_reasons: Dict[str, int] = {}

    def _reset_measurements(self, cycle: int = 0) -> None:
        super()._reset_measurements(cycle)
        # Counters describe the measured phase only, like every other
        # measurement the engine reports.
        self.bulk_transacts = 0
        self.bail_reasons.clear()

    def bulk_summary(self) -> Dict[str, object]:
        """Measured-phase bulk-seam diagnostics, JSON-ready."""
        return {
            "bulk_transacts": self.bulk_transacts,
            "bailouts": dict(sorted(self.bail_reasons.items())),
        }

    def _run_phase(
        self, clocks: List[int], budget: int, migrate: bool
    ) -> List[int]:
        # Heap tuples carry the vCPU's remaining budget as a fourth
        # field — never compared ((time, seq) is already unique) and one
        # list-indexing pair cheaper per access than a side array.
        heap: List[Tuple[int, int, int, int]] = [
            (local_time, index, index, budget)
            for index, local_time in enumerate(clocks)
        ]
        heapify(heap)
        final = list(clocks)
        vcpus = self._vcpus
        sequence = len(vcpus)
        think = self.config.think_cycles
        migrate = migrate and self._next_migration is not None
        next_migration = self._next_migration if migrate else float("inf")
        metrics = self._metrics
        next_sample = self._next_sample
        # One boundary compare per access covers both the metrics window
        # and the migration window (each is checked in reference order
        # inside the rare branch).
        boundary = next_sample if next_sample < next_migration else next_migration
        caches = self._caches
        mem_translate = self._mem_translate
        transact = self._transact
        guest_initiator = Initiator.GUEST
        hyp_initiator = Initiator.HYPERVISOR
        untracked = UNTRACKED_VM
        ro_shared = PageType.RO_SHARED
        write_to_page = self._write_to_page
        page_shift = self._page_shift
        rw_shared_translate = self._rw_shared_translate
        registry = self.system.registry
        reg_blocks = registry._blocks
        steppers = self._steppers
        vm_ids = [v.vm_id for v in vcpus]
        vm_memos = [self._xlate_memo[v.vm_id] for v in vcpus]
        hyp_memo = self._xlate_memo[HYPERVISOR_SPACE]
        dom0_memo = self._xlate_memo[DOM0_VM_ID]
        cores = [v.core for v in vcpus]
        stats = self.stats
        l1_by_page_type = stats.l1_accesses_by_page_type
        # Geometry is uniform across the private hierarchies (one config
        # builds them all), so masks/ways/latencies hoist to ints, and
        # the per-core hierarchies and their set lists hoist to lists.
        hierarchies = [caches[core] for core in range(len(caches))]
        l1_sets_by_core = [h._l1_sets for h in hierarchies]
        l2_sets_by_core = [h._l2_sets for h in hierarchies]
        any_hierarchy = hierarchies[0]
        l1_mask = any_hierarchy._l1_mask
        l2_mask = any_hierarchy._l2_mask
        l1_ways = any_hierarchy._l1_ways
        l1_latency = any_hierarchy.l1_latency
        l12_latency = l1_latency + any_hierarchy.l2_latency
        # Packed registry values (repro.coherence.registry): a store hit
        # is silent iff the block's value, dirty bit aside, is the core's
        # sole-owner value.
        owned_dirty = [sole_owner(core, True) for core in range(len(caches))]

        # --- bulk-miss seam (DESIGN §6) ------------------------------
        # Commits a transaction inline instead of descending through
        # _transact -> execute -> _try_* -> fill -> handle_eviction, by
        # one rule: a transaction commits inline whenever its first
        # transient attempt succeeds against current registry state.
        # That covers private and RW-shared misses, RO-shared content
        # reads (provider scan and Table VI bookkeeping included),
        # contended GETMs with their invalidations, and store upgrades
        # (``l2_set is None``: the same GETM commit without the fill).
        # Any victim (dirty, another VM's, untracked) is retired inline.
        # The seam performs the reference path's state mutations in
        # their exact order (it calls the same window, invalidate and
        # residence-hook primitives, so window rollovers, removals and
        # LRU orders land identically). A failed first attempt (a retry
        # ladder) returns -1, and the caller falls back to the reference
        # _transact.
        #
        # What a commit does not repeat:
        # - the plan. Transaction classes (core, vm_id, page_type,
        #   initiator) are memoised per phase with their plan, its
        #   attempt-0 destinations, the REQUEST multicast's message
        #   count and flit-hops, and its worst hop count and that
        #   count's latency before contention, and dropped when the
        #   domain table's version moves;
        # - the hop lookups to the memory controller. Per-core lists
        #   hold a memory read's flit-hops and latency before
        #   contention, and a victim's WRITEBACK and TOKEN_RETURN
        #   flit-hops;
        # - the contention term. It is recomputed only when the
        #   utilisation window rolls: a phase-local ``window_end`` is
        #   the cycle at which the window can next roll;
        # - the per-transaction counters (transactions and snoops, by
        #   initiator and page type, gets/getm counts, bulk_transacts)
        #   and the traffic totals (network messages, flit-hops and
        #   bytes). They are tallied per class or per phase and added
        #   to the stats and the network by ``flush``: before the memo
        #   is dropped, before every metrics sample and when the phase
        #   ends, even by an exception. Only final values and sampled
        #   windows can observe them (the sanitizer and tracer, which
        #   read them mid-phase, gate the seam off), and sums do not
        #   depend on the order of addition. The window's flit-hops are
        #   added at each commit, since a roll reads them;
        # - allocations. Lines are int tags and registry records are
        #   packed ints, so a fill builds no line object and a grant is
        #   one dict store; a new block enters the registry at its grant
        #   and a retired one leaves when its value reaches 0, so every
        #   dict insertion (every LRU and registry order) is unchanged.
        #
        # Three short paths cover most commits, each with the reference
        # path's effects and none of its dead arithmetic:
        # - a block with no registry record (no copy anywhere) skips
        #   the eligibility tests, which it always passes; a GETM to it
        #   has no copy to invalidate and no provider table to drop;
        # - a victim its core alone owns drops its record and sends its
        #   writeback or token return with no provider scan: a
        #   cache-owned block has no provider table (the sanitizer
        #   checks);
        # - a victim of the filling VM whose residence count is above
        #   threshold + 1 skips the decrement and the increment, which
        #   cancel: the decrement cannot fire on_low or delete the
        #   count's key.
        #
        # Gated off whenever an observer (sanitizer, tracer, outcome
        # observer) is attached: those are wired through the seams the
        # bulk path skips. The gate also asks for a VirtualSnoopFilter
        # (RegionScout defines observe_outcome, so it never gets here):
        # its plans depend only on (core, vm_id, page_type) and the
        # domain table's version, since set_friend is only called by
        # build_system. And every L2 observer must be a bare
        # ResidenceTracker, whose bookkeeping the seam inlines; only
        # the sanitizer installs a CompositeObserver, and RegionScout's
        # RegionTracker comes with observe_outcome.
        bulk = None
        flush = None
        bail = self.bail_reasons
        snoop_filter = self.system.snoop_filter
        trackers = [h.l2.observer for h in hierarchies]
        if (
            self._sanitizer is None
            and self._tracer is None
            and self._observe_outcome is None
            and type(snoop_filter) is VirtualSnoopFilter
            and all(type(t) is ResidenceTracker for t in trackers)
        ):
            protocol = self.system.protocol
            cstats = protocol.stats
            tx_by_initiator = stats.transactions_by_initiator
            tx_by_page_type = cstats.transactions_by_page_type
            snoops_by_page_type = cstats.snoops_by_page_type
            network = self.system.network
            window_cycles = network.window_cycles
            advance_window = network._advance_window
            per_hop = network._per_hop
            contention_scale = network.contention_scale
            link_bytes = network.sizing.link_bytes
            hops_tbl = network._hops
            req_flits = network._flits[MessageKind.REQUEST]
            data_flits = network._flits[MessageKind.DATA]
            ack_flits = network._flits[MessageKind.ACK]
            aggregate_hops = network._aggregate_hops
            snoop_lookup = protocol.snoop_lookup_latency
            memory = protocol.memory
            mem_node = memory.node
            mem_latency = memory.latency
            plan_fn = self._plan
            domains = snoop_filter.domains
            memory_holder = MEMORY
            global_provider = GLOBAL_PROVIDER
            shift = SHARER_SHIFT
            owner_field = OWNER_FIELD
            prov_tbl = registry._providers
            prov_pop = prov_tbl.pop
            core_ids = range(len(caches))
            core_bits = [1 << core for core in core_ids]
            # A sharer's bit in a packed value; the value of a block its
            # sole owner holds clean (the MOESI E grant).
            other_bits = [bit << shift for bit in core_bits]
            owned_clean = [sole_owner(core) for core in core_ids]
            # Each core's legs to the memory controller (none from the
            # controller's own node): a memory read's REQUEST + DATA
            # flit-hops and its latency before contention (hop tables
            # are symmetric, so one lookup serves both legs), and the
            # flit-hops of a victim's WRITEBACK or TOKEN_RETURN.
            mem_hops = [hops_tbl[core][mem_node] for core in core_ids]
            mem_read_fh = [
                (req_flits + data_flits) * hops for hops in mem_hops
            ]
            mem_read_latency = [
                hops * per_hop + mem_latency + hops * per_hop
                for hops in mem_hops
            ]
            wb_fh = [
                network._flits[MessageKind.WRITEBACK] * hops
                for hops in mem_hops
            ]
            tr_fh = [
                network._flits[MessageKind.TOKEN_RETURN] * hops
                for hops in mem_hops
            ]
            to_memory = [int(core != mem_node) for core in core_ids]
            as_frozenset = frozenset
            l2_ways = any_hierarchy._l2_ways
            # Read once per phase: observers are attached before a run.
            # One loop, not three comprehensions: the comprehension form
            # measured ~8% slower on the whole loop (bench pinned-hits,
            # paired runs), for no reason found in the per-access code.
            # A res_floors entry is threshold + 1: a victim of the
            # filling VM whose count exceeds it cannot fire on_low.
            res_counts = []
            res_on_low = []
            res_thresholds = []
            res_floors = []
            for tracker in trackers:
                res_counts.append(tracker._counts)
                res_on_low.append(tracker.on_low)
                res_thresholds.append(tracker.threshold)
                res_floors.append(tracker.threshold + 1)
            # (core, vm_id, page_type, initiator) -> [plan, attempt-0
            # mask, multicast count, REQUEST flit-hops, worst hops, worst
            # hops' latency before contention, snoops per transaction,
            # GETS tally, GETM tally, intra-domain mask, friend-domain
            # mask] (the last two for Table VI).
            memo: Dict[tuple, list] = {}
            memo_version = domains.version
            # The contention term of the current utilisation window,
            # recomputed only when the window rolls. window_end never
            # runs ahead of the network's own window: only a roll moves
            # the window, and the access clock never goes back, so a
            # roll by the reference path (a bail's request multicast)
            # is seen at the seam's next commit.
            window_end = network._window_start + window_cycles
            u = network._last_utilisation
            contention = int(contention_scale * u / (1.0 - u))
            # Traffic totals the seam has not yet added to the network's
            # counters (the window's flit-hops stay live: a roll reads
            # them).
            pending_messages = 0
            pending_flit_hops = 0

            def flush():
                nonlocal pending_messages, pending_flit_hops
                network.messages += pending_messages
                network.flit_hops += pending_flit_hops
                network.bytes_transferred += pending_flit_hops * link_bytes
                pending_messages = pending_flit_hops = 0
                transacts = 0
                for (_, _, page_type, initiator), entry in memo.items():
                    gets = entry[7]
                    getms = entry[8]
                    count = gets + getms
                    if count:
                        snoops = entry[6] * count
                        tx_by_initiator[initiator] += count
                        cstats.transactions += count
                        tx_by_page_type[page_type] += count
                        cstats.gets_count += gets
                        cstats.getm_count += getms
                        cstats.snoops += snoops
                        snoops_by_page_type[page_type] += snoops
                        entry[7] = entry[8] = 0
                        transacts += count
                self.bulk_transacts += transacts

            def bulk(
                core,
                vm_id,
                block,
                is_write,
                page_type,
                initiator,
                vm_tag,
                l1_set,
                l2_set,
                cycle,
            ):
                nonlocal memo_version, window_end, contention
                nonlocal pending_messages, pending_flit_hops
                # ---- eligibility (pure: no counters, no mutation) ----
                # A store never reaches here on an RO-shared page: guest
                # stores translate through write_to_page, which turns an
                # RO-shared page into a private copy, and hypervisor and
                # dom0 pages translate as RW-shared.
                ro_read = page_type is ro_shared
                if domains.version != memo_version:
                    flush()
                    memo.clear()
                    memo_version = domains.version
                key = (core, vm_id, page_type, initiator)
                entry = memo.get(key)
                if entry is None:
                    plan = plan_fn(core, vm_id, page_type, block)
                    attempt = plan.attempts[0]
                    count, total_hops, worst_hops = aggregate_hops(
                        core, as_frozenset(attempt)
                    )
                    entry = memo[key] = [
                        plan,
                        mask_of(attempt),
                        count,
                        req_flits * total_hops,
                        worst_hops,
                        worst_hops * per_hop,
                        len(attempt),
                        0,
                        0,
                        mask_of(plan.stats_intra_domain),
                        mask_of(plan.stats_friend_domain),
                    ]
                # msgs and fh, this commit's message and flit-hop
                # tallies, open with the request multicast's.
                (
                    plan, dest_mask, msgs, fh, worst_hops, worst_latency,
                    _, _, _, intra_mask, friend_mask,
                ) = entry
                # The registry value (0: no record, so no copy anywhere,
                # and both tests below pass).
                value = reg_blocks.get(block, 0)
                if value:
                    # The owner field is owner + 1 (0: memory owns); the
                    # owner's bit is (1 << field) >> 1.
                    field = value >> 1 & owner_field
                    owner = field - 1
                    sharers = value >> shift | 1 << field >> 1
                    if is_write:
                        # _try_getm's success test: attempt 0 reaches
                        # every other sharer, a cache owner included.
                        if sharers & ~(dest_mask | core_bits[core]):
                            reason = (
                                "getm-contended"
                                if l2_set is not None
                                else "store-upgrade"
                            )
                            bail[reason] = bail.get(reason, 0) + 1
                            return -1
                    elif (
                        owner != memory_holder
                        and not (dest_mask >> owner) & 1
                        and not ro_read
                    ):
                        # (RO-shared reads never fail: memory is clean.)
                        bail["gets-retry"] = bail.get("gets-retry", 0) + 1
                        return -1
                # ---- commit: the reference path's effects, in its
                # exact order (_transact -> execute -> _try_* -> fill ->
                # handle_eviction). One window check covers every
                # network leg charged at this cycle: the window can roll
                # over at most once per cycle value, so each of the
                # reference path's network.multicast and network.send
                # calls (the memory read's REQUEST and DATA sends
                # included) sees the same contention_delay().
                if cycle >= window_end:
                    advance_window(cycle)
                    window_end = network._window_start + window_cycles
                    u = network._last_utilisation
                    contention = int(contention_scale * u / (1.0 - u))
                if is_write:
                    entry[8] += 1
                else:
                    entry[7] += 1
                    if ro_read:
                        # Inlined _record_ro_holders (Table VI). The
                        # requester missed, so every copy is another
                        # core's.
                        cstats.ro_misses += 1
                        if value:
                            cstats.ro_holder_any_cache += 1
                            if sharers & intra_mask:
                                cstats.ro_holder_intra_vm += 1
                            elif sharers & friend_mask:
                                cstats.ro_holder_friend_vm += 1
                        else:
                            cstats.ro_holder_memory_only += 1
                # ---- data: an upgrade needs none, an RO read takes the
                # fastest reachable provider copy, a cache owner sends
                # its copy, and memory serves the rest (every block with
                # no record: it has no provider table either) ----
                completion = None
                if value:
                    if is_write:
                        # grant_exclusive (it precedes the data leg in
                        # _try_getm); invalidations follow the data leg.
                        had_copy = sharers & core_bits[core]
                        victims = sharers ^ had_copy
                        reg_blocks[block] = owned_dirty[core]
                        prov_pop(block, None)
                        if had_copy:
                            cstats.upgrades += 1
                            completion = 0
                    elif ro_read:
                        # _try_ro_gets: every reachable provider responds
                        # with its own DATA leg (a friend-VM read reached
                        # by both the own-VM and the friend-VM provider
                        # pays for both copies); the fastest one serves.
                        providers = prov_tbl.get(block)
                        for provider_vm in (
                            () if providers is None else plan.provider_vms
                        ):
                            provider = providers.get(provider_vm)
                            if (
                                provider is not None
                                and (dest_mask >> provider) & 1
                                and provider != core
                            ):
                                back = hops_tbl[provider][core]
                                msgs += 1
                                fh += data_flits * back
                                leg = (
                                    hops_tbl[core][provider] * per_hop
                                    + contention
                                    + snoop_lookup
                                    + back * per_hop
                                    + contention
                                )
                                if completion is None or leg < completion:
                                    completion = leg
                        if completion is not None:
                            cstats.cache_to_cache += 1
                            cstats.ro_served_by_cache += 1
                    if (
                        completion is None
                        and owner != memory_holder
                        and not ro_read
                    ):
                        # Cache-to-cache: the owner is inside attempt 0
                        # (request leg + snoop lookup + DATA leg back).
                        # It is another core: a store by the owner holds
                        # a copy (an upgrade), and every L2 eviction and
                        # invalidation of a copy clears its ownership.
                        back = hops_tbl[owner][core]
                        msgs += 1
                        fh += data_flits * back
                        completion = (
                            hops_tbl[core][owner] * per_hop
                            + contention
                            + snoop_lookup
                            + back * per_hop
                            + contention
                        )
                        cstats.cache_to_cache += 1
                elif is_write:
                    # grant_exclusive: no copy to invalidate, no provider
                    # table to drop.
                    reg_blocks[block] = owned_dirty[core]
                if completion is None:
                    # _memory_read_latency's two sends.
                    memory.data_reads += 1
                    if core == mem_node:
                        completion = mem_latency
                    else:
                        msgs += 2
                        fh += mem_read_fh[core]
                        completion = (
                            mem_read_latency[core] + contention + contention
                        )
                    cstats.memory_sourced += 1
                    if ro_read:
                        cstats.ro_served_by_memory += 1
                # ---- registry grant (reads) / invalidations (GETM) ----
                if ro_read:
                    # grant_shared(vm_id=...): both setdefaults, in order.
                    # A missing core holds no copy, so it is not the owner
                    # and its bit is a plain sharer bit.
                    reg_blocks[block] = value | other_bits[core]
                    if not value or providers is None:
                        prov_tbl[block] = {vm_id: core, global_provider: core}
                    else:
                        providers.setdefault(vm_id, core)
                        providers.setdefault(global_provider, core)
                elif not is_write:
                    # grant_shared to a cache owner or other sharers;
                    # with no copy anywhere, the MOESI E state
                    # (grant_exclusive, dirty=False).
                    reg_blocks[block] = (
                        value | other_bits[core]
                        if value
                        else owned_clean[core]
                    )
                elif value:
                    # Sorted invalidations (see _try_getm), i.e. in
                    # ascending bit order: each fires the victim core's
                    # residence on_low, then its ACK.
                    while victims:
                        low = victims & -victims
                        victims ^= low
                        victim_core = low.bit_length() - 1
                        victim_hierarchy = caches.get(victim_core)
                        if victim_hierarchy is not None:
                            victim_hierarchy.invalidate(block)
                        cstats.invalidations += 1
                        back = hops_tbl[victim_core][core]
                        msgs += 1
                        fh += ack_flits * back
                        leg = (
                            hops_tbl[core][victim_core] * per_hop
                            + contention
                            + snoop_lookup
                            + back * per_hop
                            + contention
                        )
                        if leg > completion:
                            completion = leg
                # ---- fill (a store upgrade's line is resident: no
                # fill; dirty == is_write here: fill_dirty is True
                # exactly for GETM, where is_write is True already) ----
                if l2_set is not None:
                    fill_vm = vm_tag
                    if len(l2_set) >= l2_ways:
                        victim_block = next(iter(l2_set))
                        victim = l2_set.pop(victim_block)
                        victim_vm = victim >> 1
                        if (
                            victim_vm == fill_vm
                            and res_counts[core].get(victim_vm, 0)
                            > res_floors[core]
                        ):
                            # The filling VM's own line, far above the
                            # watermark: on_evict's decrement and
                            # on_insert's increment cancel, on_low cannot
                            # fire and no counter key goes.
                            fill_vm = untracked
                        elif victim_vm != untracked:
                            # Inlined ResidenceTracker.on_evict.
                            counts = res_counts[core]
                            current = counts.get(victim_vm, 0) - 1
                            if current < 0:
                                # Canonical underflow diagnostics.
                                trackers[core].on_evict(victim_block, victim_vm)
                            elif current == 0:
                                del counts[victim_vm]
                            else:
                                counts[victim_vm] = current
                            if current <= res_thresholds[core]:
                                on_low = res_on_low[core]
                                if on_low is not None:
                                    on_low(core, victim_vm, current)
                        # Inclusion: the victim's L1 copy goes too.
                        l1_sets_by_core[core][victim_block & l1_mask].pop(
                            victim_block, None
                        )
                    else:
                        victim = None
                    # The line's tag (repro.cache.line): VM id, dirty bit.
                    tag = vm_tag << 1 | is_write
                    l2_set[block] = tag
                    if fill_vm != untracked:
                        counts = res_counts[core]
                        counts[fill_vm] = counts.get(fill_vm, 0) + 1
                    if len(l1_set) >= l1_ways:
                        del l1_set[next(iter(l1_set))]
                    l1_set[block] = tag
                    if victim is not None:
                        # Inlined registry.evicted + handle_eviction:
                        # tokens (and dirty data) travel back to memory.
                        # The send's latency is discarded by the
                        # reference too, so only its traffic is charged.
                        # The victim is resident, so this core holds it
                        # in the registry (the sanitizer's sharer-set
                        # check) as owner or as a plain sharer.
                        vvalue = reg_blocks[victim_block]
                        if vvalue | 1 == owned_dirty[core]:
                            # Its sole owner: every token goes home.
                            del reg_blocks[victim_block]
                            writeback = vvalue & 1 or victim & 1
                        elif vvalue >> 1 & owner_field == core + 1:
                            # The owner token goes home, with the data
                            # when either copy is dirty; the other
                            # sharers keep theirs. A cache-owned block
                            # has no provider table (the sanitizer
                            # checks).
                            reg_blocks[victim_block] = vvalue >> shift << shift
                            writeback = vvalue & 1 or victim & 1
                        else:
                            writeback = False
                            vvalue ^= other_bits[core]
                            vproviders = prov_tbl.get(victim_block)
                            if vproviders is not None:
                                for pvm, prov in list(vproviders.items()):
                                    if prov == core:
                                        del vproviders[pvm]
                                if not vproviders:
                                    del prov_tbl[victim_block]
                            if vvalue:
                                reg_blocks[victim_block] = vvalue
                            else:
                                # All tokens back at memory.
                                del reg_blocks[victim_block]
                        if writeback:
                            memory.writebacks += 1
                            fh += wb_fh[core]
                        else:
                            memory.token_returns += 1
                            fh += tr_fh[core]
                        msgs += to_memory[core]
                pending_messages += msgs
                pending_flit_hops += fh
                network._window_flit_hops += fh
                if worst_hops:
                    # The request multicast's latency.
                    worst_latency += contention
                    if worst_latency >= completion:
                        return worst_latency
                return completion

        clock = self.clock
        local_time = clock.now
        # Never empty: every VM has at least one vCPU (VirtualMachine
        # rejects zero).
        item = heappop(heap)
        try:
            while item is not None:
                local_time, _, index, count = item
                if local_time >= boundary:
                    if local_time >= next_sample:
                        clock.now = local_time
                        if flush is not None:
                            flush()
                        next_sample = metrics.sample(local_time)
                    if migrate and local_time >= next_migration:
                        clock.now = local_time
                        self._maybe_migrate()
                        next_migration = self._next_migration
                        cores = [v.core for v in vcpus]
                    boundary = (
                        next_sample
                        if next_sample < next_migration
                        else next_migration
                    )
                # ---- generation --------------------------------------
                (
                    initiator, guest_page, block_index, is_write
                ) = steppers[index]()
                # ---- translation (reference order, call-free memo) ---
                vm_id = vm_ids[index]
                if initiator is guest_initiator:
                    vm_tag = vm_id
                    vm_memo = vm_memos[index]
                    if guest_page in vm_memo:
                        host_page, page_type = vm_memo[guest_page]
                        if is_write and page_type is ro_shared:
                            clock.now = local_time
                            host_page, page_type = write_to_page(
                                vm_id, guest_page
                            )
                    else:
                        clock.now = local_time
                        if is_write:
                            entry = write_to_page(vm_id, guest_page)
                        else:
                            entry = mem_translate(vm_id, guest_page)
                        vm_memo[guest_page] = entry
                        host_page, page_type = entry
                else:
                    vm_tag = untracked
                    if initiator is hyp_initiator:
                        if guest_page in hyp_memo:
                            host_page, page_type = hyp_memo[guest_page]
                        else:
                            clock.now = local_time
                            host_page, page_type = rw_shared_translate(
                                HYPERVISOR_SPACE, guest_page
                            )
                    else:
                        if guest_page in dom0_memo:
                            host_page, page_type = dom0_memo[guest_page]
                        else:
                            clock.now = local_time
                            host_page, page_type = rw_shared_translate(
                                DOM0_VM_ID, guest_page
                            )
                block = (host_page << page_shift) | block_index
                core = cores[index]

                l1_by_page_type[page_type] += 1

                # ---- cache probe (reference order, call-free LRU).
                # A hit leaves l2_set None; a miss leaves the L2 set the
                # transaction fills ----
                # Set values are line tags (repro.cache.line), so a store
                # sets the dirty bit with ``| is_write``.
                l1_set = l1_sets_by_core[core][block & l1_mask]
                if block in l1_set:
                    tag = l1_set[block]
                    del l1_set[block]
                    l1_set[block] = tag | is_write
                    hierarchies[core].l1_hits += 1
                    latency = l1_latency
                    l2_set = None
                    if is_write:
                        l2_sets_by_core[core][block & l2_mask][block] |= 1
                else:
                    latency = l12_latency
                    l2_set = l2_sets_by_core[core][block & l2_mask]
                    if block in l2_set:
                        tag = l2_set[block]
                        del l2_set[block]
                        l2_set[block] = tag | is_write
                        hierarchies[core].l2_hits += 1
                        if len(l1_set) >= l1_ways:
                            del l1_set[next(iter(l1_set))]
                        l1_set[block] = vm_tag << 1 | is_write
                        l2_set = None
                    else:
                        hierarchies[core].misses += 1

                # ---- coherence transaction: a miss, or a store hit that
                # is not silent (a silent store needs this core to be the
                # block's sole owner; anything else is a GETM upgrade) ----
                if l2_set is not None or (
                    is_write
                    and not (
                        block in reg_blocks
                        and reg_blocks[block] | 1 == owned_dirty[core]
                    )
                ):
                    clock.now = local_time
                    extra = -1
                    if bulk is not None:
                        extra = bulk(
                            core, vm_id, block, is_write, page_type,
                            initiator, vm_tag, l1_set, l2_set, local_time,
                        )
                    if extra < 0:
                        extra = transact(
                            core, vm_id, block, is_write, page_type,
                            initiator, vm_tag, hierarchies[core],
                            l2_set is None,
                        )
                    latency += extra
                elif is_write:
                    reg_blocks[block] = owned_dirty[core]

                # ---- schedule (provably the reference pop order) -----
                next_time = local_time + think + latency
                count -= 1
                if count > 0:
                    sequence += 1
                    # push-then-pop == (pop current min, insert new) ==
                    # (new itself when it is <= the heap minimum). Keys
                    # are unique, so `<` fully orders them.
                    fresh = (next_time, sequence, index, count)
                    if heap and heap[0] < fresh:
                        item = heapreplace(heap, fresh)
                    else:
                        item = fresh
                else:
                    final[index] = next_time
                    item = heappop(heap) if heap else None
        finally:
            # The seam's deferred counters reach the stats even when the
            # phase ends by an exception (an exhausted trace).
            if flush is not None:
                flush()
        clock.now = local_time
        stats.l1_accesses += budget * len(vcpus)
        self._next_sample = next_sample
        return final
