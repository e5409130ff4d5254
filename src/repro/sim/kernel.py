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

Every coherence-visible event — a miss, a non-silent store, an eviction,
COW, a migration window, a metrics sample — *bails out* to the same
reference machinery (``self._transact``, ``self._maybe_migrate``,
``metrics.sample``), so the sanitizer, the tracer and every observer see
an unchanged event stream. One exception, and only when no observer is
attached: the *bulk-miss seam* applies a miss inline when its first
transient attempt provably succeeds against current registry state,
whatever its replacement victim (dirty, another VM's, or an untracked
hypervisor/dom0 line) — the seam replays the reference path's counter
updates and state mutations in their exact order, and everything else
(RO-shared content reads, contended blocks, retry ladders) still bails
to ``_transact``. A per-reason bail-out histogram
(``BatchedEngine.bail_reasons``) records why misses stayed on the
reference path; it lives on the engine, never on ``SimStats``, which
stays byte-identical across kernels by contract.

Stats-ordering invariant: the loop updates every counter in exactly the
order the reference loop does; the only rewrites are call-free
spellings of identical operations (``in`` + subscript for ``dict.get``,
``del d[k]; d[k] = v`` for the LRU touch, ``state.sharers == {core}``
for the len/in pair, hoisted geometry constants and per-core set lists,
the phase budget carried inside the heap tuples, and
``heapreplace``/local-min scheduling that provably pops the same
(time, seq) sequence as push-then-pop).
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heapreplace
from typing import Dict, List, Tuple

from repro.cache.line import CacheLine
from repro.coherence.registry import MEMORY, BlockState
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

# When set, every batched phase ends with a structural validation of
# all caches through the packed mirror (SetAssociativeCache.packed).
_VALIDATE_ENV = "REPRO_KERNEL_VALIDATE"


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
        reg_blocks = self.system.registry._blocks
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

        # --- bulk-miss seam (DESIGN §6) ------------------------------
        # Applies an eligible miss inline instead of descending through
        # _transact -> execute -> _try_* -> fill -> handle_eviction. A
        # miss is eligible when it is not an RO-shared read and its
        # entire outcome is decided by the first transient attempt; any
        # victim (dirty, another VM's, untracked) is retired inline. The
        # seam then performs the reference path's counter updates and
        # state mutations in their exact order (it calls the same
        # window, hop and residence-hook primitives, so window rollovers,
        # traffic charges and removals land identically). Anything else
        # returns -1 and the caller falls back to the reference
        # _transact. Gated off whenever an observer (sanitizer, tracer,
        # outcome observer) is attached: those are wired through the
        # seams the bulk path skips.
        bulk = None
        bail = self.bail_reasons
        if (
            self._sanitizer is None
            and self._tracer is None
            and self._observe_outcome is None
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
            rd_flits = req_flits + data_flits
            wb_flits = network._flits[MessageKind.WRITEBACK]
            tr_flits = network._flits[MessageKind.TOKEN_RETURN]
            mc_cache = network._mc_cache
            mc_cache_max = network._mc_cache_max
            aggregate_hops = network._aggregate_hops
            snoop_lookup = protocol.snoop_lookup_latency
            memory = protocol.memory
            mem_node = memory.node
            mem_latency = memory.latency
            plan_fn = self._plan
            memory_holder = MEMORY
            block_state = BlockState
            cache_line = CacheLine
            as_frozenset = frozenset
            l2_ways = any_hierarchy._l2_ways
            l2_observers = [h._l2_observer for h in hierarchies]
            # Residence trackers inline too; any other observer shape
            # falls back to the generic on_evict/on_insert calls.
            res_counts = []
            res_on_low = []
            res_thresholds = []
            res_trackers = []
            for h in hierarchies:
                ob = h._l2_observer
                if type(ob) is ResidenceTracker:
                    res_trackers.append(ob)
                    res_counts.append(ob._counts)
                    res_on_low.append(ob.on_low)
                    res_thresholds.append(ob.threshold)
                else:
                    res_trackers.append(None)
                    res_counts.append(None)
                    res_on_low.append(None)
                    res_thresholds.append(0)

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
                # ---- eligibility (pure: no counters, no mutation) ----
                # RO-shared reads keep their provider and Table VI
                # bookkeeping on the reference path.
                if page_type is ro_shared:
                    bail["page-type"] = bail.get("page-type", 0) + 1
                    return -1
                plan = plan_fn(core, vm_id, page_type, block)
                destinations = plan.attempts[0]
                state = reg_blocks.get(block)
                if is_write:
                    # GETM succeeds on attempt 0 with no invalidations
                    # only when no core holds any token.
                    if state is not None and (
                        state.sharers or state.owner != memory_holder
                    ):
                        bail["getm-contended"] = (
                            bail.get("getm-contended", 0) + 1
                        )
                        return -1
                    owner = memory_holder
                else:
                    owner = state.owner if state is not None else memory_holder
                    if owner != memory_holder and owner not in destinations:
                        bail["gets-retry"] = bail.get("gets-retry", 0) + 1
                        return -1
                # ---- commit: the reference path's effects, in its
                # exact order (_transact -> execute -> _try_* ->
                # _apply_transact's fill -> handle_eviction). One window
                # check covers every network leg charged at this cycle
                # (the window can roll over at most once per cycle value
                # — the same fusion _memory_read_latency uses), so the
                # contention term is one hoisted constant, and the
                # traffic counters are flushed in one batch at the end
                # (nothing reads them mid-transaction: the sanitizer is
                # gated off and metrics sample between accesses).
                if cycle - network._window_start >= window_cycles:
                    advance_window(cycle)
                u = network._last_utilisation
                contention = int(contention_scale * u / (1.0 - u))
                tx_by_initiator[initiator] += 1
                cstats.transactions += 1
                tx_by_page_type[page_type] += 1
                if is_write:
                    cstats.getm_count += 1
                else:
                    cstats.gets_count += 1
                snoops = len(destinations)
                cstats.snoops += snoops
                snoops_by_page_type[page_type] += snoops
                # Request multicast (inlined network.multicast).
                if type(destinations) is not as_frozenset:
                    destinations = as_frozenset(destinations)
                key = (core, destinations)
                agg = mc_cache.get(key)
                if agg is None:
                    if len(mc_cache) >= mc_cache_max:
                        mc_cache.clear()
                    agg = mc_cache[key] = aggregate_hops(core, destinations)
                mc_count, mc_total_hops, worst_hops = agg
                msgs = mc_count
                fh = req_flits * mc_total_hops if mc_count else 0
                attempt_latency = (
                    0 if worst_hops == 0 else worst_hops * per_hop + contention
                )
                if is_write:
                    # grant_exclusive with no prior holders, then memory
                    # sources the data (_try_getm's success order).
                    if state is None:
                        state = reg_blocks[block] = block_state()
                    state.sharers = {core}
                    state.owner = core
                    state.dirty = True
                    state.providers.clear()
                    if core == mem_node:
                        memory.data_reads += 1
                        completion = mem_latency
                    else:
                        hops = hops_tbl[core][mem_node]
                        msgs += 2
                        fh += rd_flits * hops
                        path = hops * per_hop + contention
                        memory.data_reads += 1
                        completion = path + mem_latency + path
                    cstats.memory_sourced += 1
                elif owner == MEMORY:
                    if core == mem_node:
                        memory.data_reads += 1
                        completion = mem_latency
                    else:
                        hops = hops_tbl[core][mem_node]
                        msgs += 2
                        fh += rd_flits * hops
                        path = hops * per_hop + contention
                        memory.data_reads += 1
                        completion = path + mem_latency + path
                    cstats.memory_sourced += 1
                    if state is None:
                        state = reg_blocks[block] = block_state()
                        state.sharers = {core}
                        state.owner = core
                    elif not state.sharers:
                        # MOESI E state (grant_exclusive, dirty=False).
                        state.sharers = {core}
                        state.owner = core
                        state.dirty = False
                        state.providers.clear()
                    else:
                        state.sharers.add(core)
                else:
                    # Cache-to-cache: the owner is inside attempt 0
                    # (request leg + snoop lookup + DATA leg back).
                    if core == owner:
                        completion = snoop_lookup
                    else:
                        hops = hops_tbl[core][owner]
                        back = hops_tbl[owner][core]
                        msgs += 1
                        fh += data_flits * back
                        completion = (
                            hops * per_hop
                            + contention
                            + snoop_lookup
                            + back * per_hop
                            + contention
                        )
                    cstats.cache_to_cache += 1
                    state.sharers.add(core)
                # ---- fill (dirty == is_write here: fill_dirty is True
                # exactly for GETM, where is_write is True already) ----
                counts = res_counts[core]
                observer = l2_observers[core]
                victim = None
                if len(l2_set) >= l2_ways:
                    victim = l2_set.pop(next(iter(l2_set)))
                    victim_block = victim.block
                    victim_vm = victim.vm_id
                    if counts is None:
                        if observer is not None:
                            observer.on_evict(victim)
                    elif victim_vm != untracked:
                        # Inlined ResidenceTracker.on_evict.
                        current = counts.get(victim_vm, 0) - 1
                        if current < 0:
                            # Canonical underflow diagnostics.
                            res_trackers[core].on_evict(victim)
                        elif current == 0:
                            del counts[victim_vm]
                        else:
                            counts[victim_vm] = current
                        if current <= res_thresholds[core]:
                            on_low = res_on_low[core]
                            if on_low is not None:
                                on_low(core, victim_vm, current)
                line = cache_line(block, vm_tag, is_write)
                l2_set[block] = line
                if counts is not None:
                    if vm_tag != untracked:
                        counts[vm_tag] = counts.get(vm_tag, 0) + 1
                elif observer is not None:
                    observer.on_insert(line)
                if victim is not None:
                    l1_sets_by_core[core][victim_block & l1_mask].pop(
                        victim_block, None
                    )
                if len(l1_set) >= l1_ways:
                    del l1_set[next(iter(l1_set))]
                l1_set[block] = cache_line(block, vm_tag, is_write)
                if victim is not None:
                    # Inlined registry.evicted + handle_eviction: tokens
                    # (and dirty data) travel back to memory. The send's
                    # latency is discarded by the reference too, so only
                    # its traffic is charged.
                    vstate = reg_blocks.get(victim_block)
                    if vstate is not None and core in vstate.sharers:
                        vsharers = vstate.sharers
                        vsharers.discard(core)
                        if vstate.providers:
                            for pvm, prov in list(vstate.providers.items()):
                                if prov == core:
                                    del vstate.providers[pvm]
                        if vstate.owner == core:
                            vstate.owner = memory_holder
                            if vstate.dirty or victim.dirty:
                                vstate.dirty = False
                                memory.writebacks += 1
                                if core != mem_node:
                                    msgs += 1
                                    fh += wb_flits * hops_tbl[core][mem_node]
                            else:
                                memory.token_returns += 1
                                if core != mem_node:
                                    msgs += 1
                                    fh += tr_flits * hops_tbl[core][mem_node]
                        else:
                            memory.token_returns += 1
                            if core != mem_node:
                                msgs += 1
                                fh += tr_flits * hops_tbl[core][mem_node]
                        if not vsharers:
                            if vstate.owner == memory_holder and not vstate.providers:
                                del reg_blocks[victim_block]
                if msgs:
                    network.messages += msgs
                    network.flit_hops += fh
                    network.bytes_transferred += fh * link_bytes
                    network._window_flit_hops += fh
                self.bulk_transacts += 1
                return (
                    attempt_latency
                    if attempt_latency >= completion
                    else completion
                )

        clock = self.clock
        local_time = clock.now
        if heap:
            item = heappop(heap)
        else:
            item = None
        while item is not None:
            local_time, _, index, count = item
            if local_time >= boundary:
                if local_time >= next_sample:
                    clock.now = local_time
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
            # ---- generation ------------------------------------------
            initiator, guest_page, block_index, is_write = steppers[index]()
            # ---- translation (reference order, call-free memo) -------
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

            # ---- cache probe (reference order, call-free LRU) ----
            l1_set = l1_sets_by_core[core][block & l1_mask]
            if block in l1_set:
                l1_line = l1_set[block]
                del l1_set[block]
                l1_set[block] = l1_line
                hierarchies[core].l1_hits += 1
                latency = l1_latency
                if is_write:
                    l1_line.dirty = True
                    l2_sets_by_core[core][block & l2_mask][block].dirty = True
                    # A silent store needs this core to be the block's
                    # sole owner; anything else upgrades via _transact.
                    state = reg_blocks[block] if block in reg_blocks else None
                    if (
                        state is not None
                        and state.owner == core
                        and state.sharers == {core}
                    ):
                        state.dirty = True
                    else:
                        if bulk is not None:
                            bail["store-upgrade"] = (
                                bail.get("store-upgrade", 0) + 1
                            )
                        clock.now = local_time
                        latency += transact(
                            core, vm_id, block, True, page_type,
                            initiator, vm_tag, hierarchies[core], True,
                        )
            else:
                l2_set = l2_sets_by_core[core][block & l2_mask]
                if block in l2_set:
                    l2_line = l2_set[block]
                    del l2_set[block]
                    l2_set[block] = l2_line
                    hierarchy = hierarchies[core]
                    hierarchy.l2_hits += 1
                    if is_write:
                        l2_line.dirty = True
                    if len(l1_set) >= l1_ways:
                        del l1_set[next(iter(l1_set))]
                    l1_set[block] = CacheLine(block, vm_tag, is_write)
                    latency = l12_latency
                    if is_write:
                        state = (
                            reg_blocks[block] if block in reg_blocks else None
                        )
                        if (
                            state is not None
                            and state.owner == core
                            and state.sharers == {core}
                        ):
                            state.dirty = True
                        else:
                            if bulk is not None:
                                bail["store-upgrade"] = (
                                    bail.get("store-upgrade", 0) + 1
                                )
                            clock.now = local_time
                            latency += transact(
                                core, vm_id, block, True, page_type,
                                initiator, vm_tag, hierarchy, True,
                            )
                else:
                    hierarchy = hierarchies[core]
                    hierarchy.misses += 1
                    clock.now = local_time
                    if bulk is not None:
                        extra = bulk(
                            core, vm_id, block, is_write, page_type,
                            initiator, vm_tag, l1_set, l2_set,
                            local_time,
                        )
                        if extra < 0:
                            extra = transact(
                                core, vm_id, block, is_write, page_type,
                                initiator, vm_tag, hierarchy, False,
                            )
                        latency = l12_latency + extra
                    else:
                        latency = l12_latency + transact(
                            core, vm_id, block, is_write, page_type,
                            initiator, vm_tag, hierarchy, False,
                        )

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
        clock.now = local_time
        stats.l1_accesses += budget * len(vcpus)
        self._next_sample = next_sample
        if os.environ.get(_VALIDATE_ENV):
            # Structural self-check of every cache through the packed
            # mirror (repro.cache.setassoc) — differential CI runs with
            # this on to catch any LRU-order drift the call-free dict
            # spellings could introduce.
            for hierarchy in hierarchies:
                hierarchy.l1.validate_packed()
                hierarchy.l2.validate_packed()
        return final
