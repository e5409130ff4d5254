"""The trace-driven simulation engine.

Quasi-event-driven interleaving: each vCPU carries a local cycle clock;
the engine always advances the vCPU with the smallest clock, so cores
stay loosely synchronised without a global event queue. Each step:

1. fire any due migration (the paper's approximation: every period, two
   random vCPUs of *different* VMs swap physical cores),
2. generate the vCPU's next access, translate it (COW applies here),
3. look up the local L1/L2; on a miss — or a store without exclusive
   tokens — run a coherence transaction under the filter's plan,
4. fill the caches, handle the replacement victim, advance the clock.

Execution time (Figure 6) is the largest per-vCPU clock at completion.
"""

from __future__ import annotations

import gc
import heapq
import random
from typing import List, Optional, Tuple

from repro.core.clock import SimClock
from repro.core.residence import UNTRACKED_VM
from repro.hypervisor.vm import DOM0_VM_ID, VCpu
from repro.mem.pagetype import PageType
from repro.sim.system import HYPERVISOR_SPACE, SimulatedSystem
from repro.workloads.trace import Initiator


class SimulationEngine:
    """Runs one built :class:`SimulatedSystem` to completion."""

    def __init__(self, system: SimulatedSystem) -> None:
        self.system = system
        self.config = system.config
        self.stats = system.stats
        # The simulated cycle, shared with the filter and the observers.
        # A leaf object rather than a closure over the engine: the
        # components never point back at the engine, so the whole graph
        # is acyclic and a finished cell is freed by reference counting
        # (tests/sim/test_reclaim.py).
        self.clock = SimClock()
        self._rng = random.Random(f"engine/{self.config.seed}")
        self._vcpus: List[VCpu] = [
            vcpu for vm in system.vms for vcpu in vm.vcpus
        ]
        system.snoop_filter.clock = self.clock  # used by vsnoop filters
        self._observe_outcome = getattr(system.snoop_filter, "observe_outcome", None)
        period = self.config.migration_period_cycles
        self._migration_period = period
        self._next_migration = period if period is not None else None
        # Hot-path aliases: every component below is looked up once per
        # access in _step, and none of them changes identity during a run.
        self._workloads = system.workloads
        self._caches = system.caches
        self._memory = system.hypervisor.memory
        self._mem_translate = self._memory.translate
        self._plan = system.snoop_filter.plan
        self._execute = system.protocol.execute
        # Opt-in coherence sanitizer: when attached, every plan and
        # transaction goes through its checked wrappers (pure observers —
        # latency, traffic and RNG draws are untouched, so stats stay
        # bit-identical to an unsanitized run).
        self._sanitizer = system.sanitizer
        if self._sanitizer is not None:
            self._sanitizer.clock = self.clock
            self._plan = self._sanitizer.wrap_plan(self._plan)
            self._execute = self._sanitizer.wrap_execute(self._execute)
        # Opt-in tracer (repro.obs): wraps the plan seam (to capture each
        # transaction's destination set) and the engine's own transaction
        # entry point (to read exact counter deltas around it). Installed
        # after the sanitizer so traced transactions are the checked
        # ones; like it, a pure observer — stats stay bit-identical.
        self._tracer = system.tracer
        if self._tracer is not None:
            self._tracer.clock = self.clock
            self._plan = self._tracer.wrap_plan(self._plan)
            self._transact = self._tracer.wrap_transact(self._transact)
        # Opt-in metrics recorder: the hot loop compares each popped
        # clock against this boundary; float('inf') keeps the comparison
        # permanently false (one int-vs-inf test per access) when off.
        self._metrics = system.metrics
        self._next_sample = float("inf")
        self._handle_eviction = system.protocol.handle_eviction
        self._write_to_page = system.hypervisor.write_to_page
        layout = system.layout
        self._page_shift = layout.page_bits - layout.block_bits
        # Translation memo, read by the batched kernel's loop and by
        # _rw_shared_translate: space -> {guest_page -> (host_page,
        # page_type)}. The memory manager fires the hook whenever any
        # existing translation or page type changes (COW, content sharing,
        # RW-shared marking, page frees), so a memo hit is always current.
        # Inner dicts are pre-built and cleared *in place* so the batched
        # loop can hold direct per-vCPU references to them across
        # invalidations.
        # The hook closes over the memo, not the engine (no cycle).
        self._xlate_memo: dict = {}
        for vm in system.vms:
            self._xlate_memo[vm.vm_id] = {}
        self._xlate_memo.setdefault(DOM0_VM_ID, {})
        self._xlate_memo.setdefault(HYPERVISOR_SPACE, {})
        self._memory.translation_change_hook = _memo_clearer(self._xlate_memo)
        # Per-vCPU generation closures, built once: a vCPU's VM and
        # stream index never change (only its core does), so the
        # steppers do not depend on phase state and both engines (and
        # both phases) share the identical closure per vCPU.
        self._steppers = [
            self._workloads[vcpu.vm_id].stepper_for(vcpu.index)
            for vcpu in self._vcpus
        ]

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(
        self,
        accesses_per_vcpu: Optional[int] = None,
        warmup_accesses_per_vcpu: Optional[int] = None,
    ) -> None:
        """Warm the caches, reset the counters, then measure.

        The warm-up phase fills working sets so cold misses do not drown
        the steady-state behaviour the paper measures. Migrations only
        start with the measured phase.
        """
        self.measure(
            self.warm(warmup_accesses_per_vcpu), accesses_per_vcpu
        )

    def warm(
        self, warmup_accesses_per_vcpu: Optional[int] = None
    ) -> List[int]:
        """Run the warm-up phase and reset counters; returns the clocks.

        After this the system is in exactly the state
        :meth:`restore_warm` reproduces from a snapshot: architectural
        state warm, every measurement counter zeroed.
        """
        warmup = (
            warmup_accesses_per_vcpu
            if warmup_accesses_per_vcpu is not None
            else self.config.warmup_accesses_per_vcpu
        )
        clocks = [0] * len(self._vcpus)
        if warmup > 0:
            # The access loop allocates heavily into long-lived containers
            # (cache lines, registry state), which makes the cyclic GC fire
            # constantly for no reclaimable garbage. The engine allocates
            # no reference cycles (the system graph is acyclic, pinned by
            # tests/sim/test_reclaim.py), so pausing the collector for the
            # phase is purely a speed-up.
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                clocks = self._run_phase(clocks, warmup, migrate=False)
            finally:
                if gc_was_enabled:
                    gc.enable()
        # Even after no warm-up: the build's own traffic (the initial
        # placements' vCPU-map multicasts) is not part of the measured
        # phase.
        self._reset_measurements(min(clocks))
        return clocks

    def restore_warm(self, state: dict) -> List[int]:
        """Reach the post-:meth:`warm` state from a snapshot instead.

        Restores the architectural state into the freshly built system,
        then performs the same measurement reset the straight path runs
        at the warm-up boundary, so both paths converge to bit-identical
        pre-measurement state.
        """
        clocks = self.system.restore(state)
        self._reset_measurements(min(clocks))
        return clocks

    def measure(
        self, clocks: List[int], accesses_per_vcpu: Optional[int] = None
    ) -> None:
        """Run the measured phase from post-warm-up ``clocks``."""
        budget = (
            accesses_per_vcpu
            if accesses_per_vcpu is not None
            else self.config.accesses_per_vcpu
        )
        if self._migration_period is not None:
            self._next_migration = max(clocks) + self._migration_period
        start = min(clocks)
        if self._tracer is not None:
            self._tracer.begin_measurement(start)
        if self._metrics is not None:
            self._next_sample = self._metrics.begin(start)
        # As in warm(): a phase steps every vCPU at least once, so a
        # zero budget skips it, and the collector pauses around it.
        if budget > 0:
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                clocks = self._run_phase(clocks, budget, migrate=True)
            finally:
                if gc_was_enabled:
                    gc.enable()
        self.stats.execution_cycles = max(clocks) - start
        self._finalise()

    def _run_phase(
        self, clocks: List[int], budget: int, migrate: bool
    ) -> List[int]:
        """Advance every vCPU by ``budget`` accesses; returns final clocks.

        The executable spec the batched kernel is checked against: always
        step the vCPU with the smallest local clock (ties broken by push
        order), firing any due metrics sample and migration window first.
        """
        heap: List[Tuple[int, int, int]] = [
            (local_time, index, index) for index, local_time in enumerate(clocks)
        ]
        heapq.heapify(heap)
        remaining = [budget] * len(clocks)
        final = list(clocks)
        sequence = len(clocks)
        think = self.config.think_cycles
        migrate = migrate and self._next_migration is not None
        while heap:
            local_time, _, index = heapq.heappop(heap)
            self.clock.now = local_time
            if local_time >= self._next_sample:
                self._next_sample = self._metrics.sample(local_time)
            if migrate and local_time >= self._next_migration:
                self._maybe_migrate()
            next_time = local_time + think + self._step(index)
            remaining[index] -= 1
            if remaining[index] > 0:
                sequence += 1
                heapq.heappush(heap, (next_time, sequence, index))
            else:
                final[index] = next_time
        # Every step is exactly one L1 access, so the phase total is known
        # up front (the per-page-type breakdown is counted in _step).
        self.stats.l1_accesses += budget * len(clocks)
        return final

    def _step(self, index: int) -> int:
        """One access of vCPU ``index``; returns its latency in cycles.

        Generate, translate (COW applies to guest stores), look up the
        local L1/L2, and run a coherence transaction under the filter's
        plan on a miss or on a store without exclusive tokens.
        """
        vcpu = self._vcpus[index]
        vm_id = vcpu.vm_id
        initiator, guest_page, block_index, is_write = self._steppers[index]()
        if initiator is Initiator.GUEST:
            vm_tag = vm_id
            if is_write:
                host_page, page_type = self._write_to_page(vm_id, guest_page)
            else:
                host_page, page_type = self._mem_translate(vm_id, guest_page)
        else:
            # Hypervisor and dom0 accesses touch RW-shared pages and are
            # not attributed to any VM's residence counters.
            vm_tag = UNTRACKED_VM
            space = (
                HYPERVISOR_SPACE if initiator is Initiator.HYPERVISOR else DOM0_VM_ID
            )
            host_page, page_type = self._rw_shared_translate(space, guest_page)
        block = (host_page << self._page_shift) | block_index
        core = vcpu.core
        self.stats.l1_accesses_by_page_type[page_type] += 1

        hierarchy = self._caches[core]
        result = hierarchy.access(block, vm_tag, is_write)
        latency = result.latency
        if not result.hit:
            latency += self._transact(
                core, vm_id, block, is_write, page_type, initiator, vm_tag,
                hierarchy, False,
            )
        elif is_write and not self.system.registry.write_hit(core, block):
            latency += self._transact(
                core, vm_id, block, True, page_type, initiator, vm_tag,
                hierarchy, True,
            )
        return latency

    def _maybe_migrate(self) -> None:
        now = self.clock.now
        if self._next_migration is None or now < self._next_migration:
            return
        while now >= self._next_migration:
            self._shuffle_two_vcpus()
            self._next_migration += self._migration_period

    def _shuffle_two_vcpus(self) -> None:
        """Swap the cores of two random vCPUs from different VMs."""
        first = self._rng.choice(self._vcpus)
        others = [v for v in self._vcpus if v.vm_id != first.vm_id]
        if not others:
            return
        second = self._rng.choice(others)
        self.system.hypervisor.swap_vcpus(first, second, cycle=self.clock.now)
        self.stats.migrations += 1

    def _reset_measurements(self, cycle: int = 0) -> None:
        """Zero every measurement counter in place; architectural state persists.

        ``cycle`` anchors the network's utilisation window at the
        measurement boundary (both the straight warm-up and the
        snapshot-restore path pass ``min(clocks)``, so the two stay
        bit-identical).
        """
        self.stats.reset()
        self.system.network.reset(cycle)
        self.system.memory_ctrl.reset()
        for hierarchy in self.system.caches.values():
            hierarchy.l1_hits = 0
            hierarchy.l2_hits = 0
            hierarchy.misses = 0
        domains = getattr(self.system.snoop_filter, "domains", None)
        if domains is not None:
            domains.removal_log.clear()
            domains.removal_log_dropped = 0
        self.system.hypervisor.relocations.clear()

    # ------------------------------------------------------------------
    # One access.
    # ------------------------------------------------------------------

    def _transact(
        self,
        core: int,
        vm_id: int,
        block: int,
        is_write: bool,
        page_type: PageType,
        initiator: Initiator,
        vm_tag: int,
        hierarchy,
        hit: bool,
    ) -> int:
        """Run the coherence transaction for one access; returns its latency.

        Called from :meth:`_step` (and the batched kernel's loop, for
        the transactions its bulk-miss seam does not commit inline) on a
        miss of the private hierarchy or a store without exclusive
        tokens: plan, execute, fill on a miss, observe.
        """
        self.stats.transactions_by_initiator[initiator] += 1
        plan = self._plan(core, vm_id, page_type, block)
        outcome = self._execute(
            core, vm_id, block, is_write, plan, cycle=self.clock.now
        )
        if not hit:
            victim = hierarchy.fill(block, vm_tag, is_write or outcome.fill_dirty)
            if victim is not None:
                self._handle_eviction(
                    core, victim[0], victim[2], cycle=self.clock.now
                )
        if self._observe_outcome is not None:
            self._observe_outcome(core, block)
        return outcome.latency

    def _rw_shared_translate(self, space: int, page: int) -> Tuple[int, PageType]:
        """Memoised hypervisor/dom0 translation (forced RW-shared)."""
        memo = self._xlate_memo[space]
        entry = memo.get(page)
        if entry is not None:
            return entry
        memory = self._memory
        host_page, page_type = memory.translate(space, page)
        if page_type is not PageType.RW_SHARED:
            # First touch: marking fires the memo-clear hook, which
            # empties this memo in place, so store the entry after it.
            memory.mark_rw_shared(space, page)
        entry = (host_page, PageType.RW_SHARED)
        memo[page] = entry
        return entry

    # ------------------------------------------------------------------
    # Wrap-up.
    # ------------------------------------------------------------------

    def _finalise(self) -> None:
        if self._sanitizer is not None:
            # Full-state audit: recompute every invariant from the actual
            # cache lines, proving the incremental shadow never drifted.
            self._sanitizer.audit()
        stats = self.stats
        system = self.system
        stats.network_bytes = system.network.bytes_transferred
        stats.network_messages = system.network.messages
        domains = getattr(system.snoop_filter, "domains", None)
        if domains is not None:
            stats.removal_periods_cycles = [
                record.period for record in domains.removal_log
            ]
            stats.removal_periods_dropped = domains.removal_log_dropped
            stats.snoop_map_sizes = {
                vm.vm_id: domains.domain_size(vm.vm_id) for vm in system.vms
            }
        now = self.clock.now
        if self._metrics is not None:
            stats.metrics = self._metrics.finish(now)
        if self._tracer is not None:
            self._tracer.close(now)


def _memo_clearer(xlate_memo: dict):
    """The memory manager's translation-change hook: clear every memo."""

    def clear() -> None:
        for memo in xlate_memo.values():
            memo.clear()

    return clear


def run_simulation(system: SimulatedSystem) -> "SimulatedSystem":
    """Convenience: run ``system`` to completion and return it.

    Honours ``config.kernel`` — the import is deferred because
    :mod:`repro.sim.kernel` subclasses this module's engine.
    """
    from repro.sim.kernel import engine_for

    engine_for(system).run()
    return system
