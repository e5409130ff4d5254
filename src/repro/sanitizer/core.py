"""The runtime coherence sanitizer.

An opt-in shadow layer (``SimConfig.sanitize`` / ``repro-sim run
--sanitize``) that maintains ground-truth line residence independently of
the caches and, on every coherence transaction, proves the snoop filter
safe:

(a) **Snoop-filter safety** — the destination sets of every
    :class:`~repro.coherence.plan.RequestPlan` cover the true holders of
    the requested block. For ``BROADCAST``, ``VSNOOP_BASE`` and
    ``VSNOOP_COUNTER`` a single attempt must already cover them; for
    ``VSNOOP_COUNTER_THRESHOLD`` a missed holder is legal only when the
    plan carries the TokenB broadcast-persistent retry path, and the
    sanitizer verifies the retry is actually charged (attempt count and
    the protocol's retry counter both advance).
(b) **Residence-counter consistency** — after every L2 insert, eviction
    and invalidation, each core's :class:`ResidenceTracker` count per VM
    equals the true number of tracked lines of that VM in the L2.
(c) **SWMR / state invariants** — the registry's sharer set for the
    requested block equals the true holder set, a dirty block always
    has a cache owner, and every provider designation names a sharer.
    (The owner token is held by a sharer or by memory by construction:
    the registry's value format cannot name an owner without a copy, so
    an owner whose line is gone fails the sharer-set check.)
(d) **Domain soundness** — under the non-speculative policies, a VM's
    vCPU map covers every core holding the VM's private data.

Content-shared (RO) reads are exempt from (a): memory is guaranteed to
hold a clean copy, so a destination set that misses holders is the
Section VI optimisation working as designed, not a filter bug.

Violations raise a structured :class:`SanitizerViolation` (mode
``"raise"``) or are counted into ``SimStats.sanitizer_violations`` for
soak runs (mode ``"count"``).
"""

from __future__ import annotations

import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
)

from repro.cache.setassoc import CompositeObserver
from repro.coherence.plan import RequestPlan
from repro.coherence.registry import MEMORY, cores_of
from repro.core.clock import SimClock
from repro.core.filter import SnoopPolicy, VirtualSnoopFilter
from repro.core.residence import UNTRACKED_VM, ResidenceTracker
from repro.mem.pagetype import PageType
from repro.sanitizer.shadow import ShadowCache
from repro.sanitizer.violation import SanitizerCheck, SanitizerViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import SimulatedSystem

EMPTY: FrozenSet[int] = frozenset()

#: Bound on the violation objects kept around in counting mode; the
#: counters in ``SimStats`` stay exact beyond it.
MAX_KEPT_VIOLATIONS = 50

_NON_SPECULATIVE = (
    SnoopPolicy.BROADCAST,
    SnoopPolicy.VSNOOP_BASE,
    SnoopPolicy.VSNOOP_COUNTER,
)


class CoherenceSanitizer:
    """Shadow ground truth plus the invariant checks wired around it.

    The system owns the sanitizer and its caches own the shadows, so the
    sanitizer holds the system and the shadows weakly and keeps strong
    references only to components that never point back at it (the
    registry and the filter). The per-event and per-transaction checks
    read those directly; only violation counting and the audit go
    through the system.
    """

    def __init__(self, system: "SimulatedSystem", mode: str = "raise") -> None:
        if mode not in ("raise", "count"):
            raise ValueError(f"sanitize_mode must be 'raise' or 'count', got {mode!r}")
        self._system = weakref.ref(system)
        self._registry = system.registry
        self._snoop_filter = system.snoop_filter
        trackers = getattr(system.snoop_filter, "trackers", None) or {}
        self._trackers: Dict[int, ResidenceTracker] = {
            core: tracker
            for core, tracker in trackers.items()
            if isinstance(tracker, ResidenceTracker)
        }
        self.mode = mode
        self.clock: Callable[[], int] = SimClock()
        self.shadows: "weakref.WeakValueDictionary[int, ShadowCache]" = (
            weakref.WeakValueDictionary()
        )
        self._holders: Dict[int, Set[int]] = {}
        self.violations: List[SanitizerViolation] = []
        self.counters: Dict[str, int] = {
            "plans_checked": 0,
            "transactions_checked": 0,
            "events_checked": 0,
            "filter_misses": 0,
            "retried_filter_misses": 0,
            "audits": 0,
        }
        self._plan_fn: Optional[Callable[..., RequestPlan]] = None
        # Observability tap: called with every violation before it is
        # raised or counted (the tracer records a ViolationEvent here).
        self.on_violation: Optional[Callable[[SanitizerViolation], None]] = None

    @property
    def system(self) -> "SimulatedSystem":
        system = self._system()
        if system is None:
            raise ReferenceError("the sanitized system no longer exists")
        return system

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def attach(self) -> "CoherenceSanitizer":
        """Hook a shadow observer behind every L2's existing observer."""
        for core, hierarchy in self.system.caches.items():
            shadow = ShadowCache(core, self)
            self.shadows[core] = shadow
            existing = hierarchy.l2.observer
            observer = (
                CompositeObserver(existing, shadow) if existing is not None else shadow
            )
            hierarchy.l2.observer = observer
        return self

    def wrap_plan(
        self, plan_fn: Callable[..., RequestPlan]
    ) -> Callable[..., RequestPlan]:
        self._plan_fn = plan_fn
        return self.checked_plan

    def wrap_execute(self, execute_fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap the protocol's execute; see :meth:`checked_execute`.

        The wrapper closes over the protocol rather than being stored on
        the sanitizer: the protocol reaches the caches, whose observers
        reach the sanitizer, so a sanitizer-held reference would be a
        cycle.
        """
        protocol = self.system.protocol
        checked = self.checked_execute

        def checked_execute(core, vm_id, block, is_write, plan, cycle=0):
            return checked(
                execute_fn, protocol.stats, core, vm_id, block, is_write,
                plan, cycle,
            )

        return checked_execute

    # ------------------------------------------------------------------
    # Shadow bookkeeping helpers (used by ShadowCache).
    # ------------------------------------------------------------------

    def holders_of(self, block: int, create: bool = False) -> Set[int]:
        """The true holder set of ``block`` (cores whose L2 has a copy)."""
        holders = self._holders.get(block)
        if holders is None:
            if not create:
                return set()
            holders = self._holders[block] = set()
        return holders

    def drop_holders(self, block: int) -> None:
        self._holders.pop(block, None)

    def check_tracker(
        self, core: int, vm_id: int, event: str, true_count: int
    ) -> None:
        """Check (b) incrementally for the (core, vm) an event touched.

        ``true_count`` is the shadow's count of the VM's lines on the
        core (the shadow passes its own, so this path needs no lookup).
        """
        self.counters["events_checked"] += 1
        tracker = self._trackers.get(core)
        if tracker is None:
            return
        if vm_id == UNTRACKED_VM:
            # Hypervisor/dom0 lines must never reach the counters.
            if tracker.count(UNTRACKED_VM) != 0:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.RESIDENCE,
                        "residence counter tracks the UNTRACKED_VM tag",
                        cycle=self.clock(),
                        vm_id=UNTRACKED_VM,
                        core=core,
                        details={"event": event},
                    )
                )
            return
        tracked = tracker.count(vm_id)
        if tracked != true_count:
            self.report(
                SanitizerViolation(
                    SanitizerCheck.RESIDENCE,
                    f"residence counter diverged from true residence on {event}",
                    cycle=self.clock(),
                    vm_id=vm_id,
                    core=core,
                    details={"counter": tracked, "true_count": true_count},
                )
            )

    # ------------------------------------------------------------------
    # Per-transaction checks.
    # ------------------------------------------------------------------

    def checked_plan(
        self,
        core: int,
        vm_id: int,
        page_type: PageType,
        block: Optional[int] = None,
    ) -> RequestPlan:
        """Filter-plan wrapper: produce the plan, then prove it safe."""
        assert self._plan_fn is not None
        plan = self._plan_fn(core, vm_id, page_type, block)
        self.counters["plans_checked"] += 1
        if block is not None:
            self._check_block_state(block)
            if page_type is not PageType.RO_SHARED:
                self._check_plan_safety(core, vm_id, page_type, block, plan)
        return plan

    def checked_execute(
        self,
        execute_fn: Callable[..., Any],
        stats: Any,
        core: int,
        vm_id: int,
        block: int,
        is_write: bool,
        plan: RequestPlan,
        cycle: int = 0,
    ) -> Any:
        """Protocol wrapper: predict the attempt count, verify it charged.

        ``stats`` is the protocol's live coherence statistics, whose
        retry counter the transaction must advance.
        """
        self.counters["transactions_checked"] += 1
        expected = self._expected_attempts(core, block, is_write, plan)
        retries_before = stats.retries
        outcome = execute_fn(core, vm_id, block, is_write, plan, cycle=cycle)
        if expected is not None:
            if outcome.attempts_used != expected:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.RETRY,
                        "transaction used a different attempt count than the "
                        "token state requires",
                        cycle=cycle,
                        block=block,
                        vm_id=vm_id,
                        core=core,
                        plan=plan,
                        details={
                            "expected_attempts": expected,
                            "attempts_used": outcome.attempts_used,
                        },
                    )
                )
            elif stats.retries - retries_before != expected - 1:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.RETRY,
                        "retry counter was not charged for a failed attempt",
                        cycle=cycle,
                        block=block,
                        vm_id=vm_id,
                        core=core,
                        plan=plan,
                        details={
                            "expected_retries": expected - 1,
                            "charged_retries": stats.retries - retries_before,
                        },
                    )
                )
            if expected > 1:
                self.counters["retried_filter_misses"] += 1
        return outcome

    # ------------------------------------------------------------------
    # The individual invariants.
    # ------------------------------------------------------------------

    def _check_plan_safety(
        self,
        core: int,
        vm_id: int,
        page_type: PageType,
        block: int,
        plan: RequestPlan,
    ) -> None:
        """(a) destination sets cover true holders; (d) domain soundness."""
        holders = self._holders.get(block)
        if not holders:
            return
        needed = holders - {core}
        if not needed:
            return
        union: FrozenSet[int] = frozenset().union(*plan.attempts)
        missed = needed - union
        if missed:
            self.report(
                SanitizerViolation(
                    SanitizerCheck.SNOOP_SAFETY,
                    "plan misses holders with no attempt that could reach them",
                    cycle=self.clock(),
                    block=block,
                    vm_id=vm_id,
                    core=core,
                    plan=plan,
                    holders=holders,
                    details={"missed": sorted(missed)},
                )
            )
        elif needed - plan.attempts[0]:
            if plan.last_is_persistent:
                # Speculative filtering (counter-threshold): the miss is
                # legal because the broadcast-persistent retry recovers it.
                # checked_execute verifies the retry is actually charged.
                self.counters["filter_misses"] += 1
            else:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.SNOOP_SAFETY,
                        "first attempt misses holders and the plan carries no "
                        "persistent retry path",
                        cycle=self.clock(),
                        block=block,
                        vm_id=vm_id,
                        core=core,
                        plan=plan,
                        holders=holders,
                        details={"missed_first": sorted(needed - plan.attempts[0])},
                    )
                )
        snoop_filter = self._snoop_filter
        if (
            page_type is PageType.VM_PRIVATE
            and isinstance(snoop_filter, VirtualSnoopFilter)
            and snoop_filter.policy in _NON_SPECULATIVE
        ):
            domain = snoop_filter.domains.domain(vm_id)
            stray = needed - domain
            if stray:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.DOMAIN,
                        "vCPU map omits cores holding the VM's private data",
                        cycle=self.clock(),
                        block=block,
                        vm_id=vm_id,
                        core=core,
                        holders=holders,
                        details={"domain": sorted(domain), "stray": sorted(stray)},
                    )
                )

    def _check_block_state(self, block: int) -> None:
        """(c) registry record for ``block`` agrees with the true holders."""
        state = self._registry.state_of(block)
        holders = self._holders.get(block, EMPTY)
        sharers = cores_of(state.sharers) if state is not None else []
        if set(sharers) != set(holders):
            self.report(
                SanitizerViolation(
                    SanitizerCheck.STATE,
                    "registry sharer set disagrees with true cache residence",
                    cycle=self.clock(),
                    block=block,
                    holders=holders,
                    details={"sharers": sorted(sharers)},
                )
            )
            return
        if state is None:
            return
        self._check_providers(block, state, sharers, holders, self.clock())
        if state.dirty and state.owner == MEMORY:
            self.report(
                SanitizerViolation(
                    SanitizerCheck.STATE,
                    "block dirty but the owner token is at memory",
                    cycle=self.clock(),
                    block=block,
                    holders=holders,
                )
            )

    def _check_providers(self, block, state, sharers, holders, cycle) -> None:
        """Every provider designation of ``block`` names a core with a
        copy, and a block with a provider table is memory-owned.

        The designation leaves with its copy (an eviction) or with every
        copy (a GETM's exclusive grant, a page drop), so a table never
        outlives the copies it names. Only RO-shared reads designate, and
        a cache takes the owner token only by an exclusive grant, which
        drops the table. The batched kernel's bulk-miss seam relies on
        both: a block with no copy has no table to clear, and an owned
        victim has no designation to retire.
        """
        if not state.providers:
            return
        stray = sorted(set(state.providers.values()) - set(sharers))
        if stray:
            self.report(
                SanitizerViolation(
                    SanitizerCheck.STATE,
                    "provider designation on a core without a copy",
                    cycle=cycle,
                    block=block,
                    holders=holders,
                    details={"providers": stray},
                )
            )
        elif state.owner != MEMORY:
            self.report(
                SanitizerViolation(
                    SanitizerCheck.STATE,
                    "provider table on a cache-owned block",
                    cycle=cycle,
                    block=block,
                    holders=holders,
                    details={"owner": state.owner},
                )
            )

    def _expected_attempts(
        self, core: int, block: int, is_write: bool, plan: RequestPlan
    ) -> Optional[int]:
        """The attempt index the protocol must succeed on, from token state.

        Returns ``None`` when the check does not apply (content-shared
        reads always succeed on the first attempt via memory). A plan
        that cannot succeed on any attempt is itself a safety violation —
        reported here with full context before the protocol fails
        loudly on it.
        """
        if plan.ro_shared and not is_write:
            return 1
        state = self._registry.state_of(block)
        sharers = cores_of(state.sharers) if state is not None else []
        owner = state.owner if state is not None else MEMORY
        for index, destinations in enumerate(plan.attempts):
            if is_write:
                success = all(
                    sharer == core or sharer in destinations for sharer in sharers
                ) and (owner == MEMORY or owner == core or owner in destinations)
            else:
                success = owner == MEMORY or owner in destinations
            if success:
                return index + 1
        self.report(
            SanitizerViolation(
                SanitizerCheck.SNOOP_SAFETY,
                "no attempt of the plan can complete the transaction",
                cycle=self.clock(),
                block=block,
                core=core,
                plan=plan,
                holders=self._holders.get(block, EMPTY),
                details={"sharers": sorted(sharers), "owner": owner},
            )
        )
        return None

    # ------------------------------------------------------------------
    # Full-state audit (end of run, or on demand).
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """Re-derive every invariant from the actual cache lines.

        Unlike the incremental checks, the audit recomputes ground truth
        directly from ``hierarchy.l2.lines()``, so it also proves the
        sanitizer's own shadow never drifted.
        """
        self.counters["audits"] += 1
        cycle = self.clock()
        true_holders: Dict[int, Set[int]] = {}
        for core, hierarchy in self.system.caches.items():
            counts: Dict[int, int] = {}
            blocks: Set[int] = set()
            for block, vm_id, _ in hierarchy.l2.lines():
                blocks.add(block)
                true_holders.setdefault(block, set()).add(core)
                if vm_id != UNTRACKED_VM:
                    counts[vm_id] = counts.get(vm_id, 0) + 1
            shadow = self.shadows.get(core)
            if shadow is not None and (
                shadow.resident_blocks() != blocks or shadow.counts() != counts
            ):
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.SHADOW,
                        "shadow inventory diverged from actual L2 contents",
                        cycle=cycle,
                        core=core,
                        details={
                            "shadow_only": sorted(shadow.resident_blocks() - blocks),
                            "cache_only": sorted(blocks - shadow.resident_blocks()),
                        },
                    )
                )
            tracker = self._trackers.get(core)
            if tracker is not None and tracker.counts() != counts:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.RESIDENCE,
                        "residence counters diverged from true per-VM residence",
                        cycle=cycle,
                        core=core,
                        details={"counters": tracker.counts(), "true_counts": counts},
                    )
                )
        registry = self._registry
        for block, state in registry.records():
            holders = true_holders.get(block, set())
            sharers = cores_of(state.sharers)
            if set(sharers) != holders:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.STATE,
                        "registry sharer set disagrees with cache contents",
                        cycle=cycle,
                        block=block,
                        holders=holders,
                        details={"sharers": sharers},
                    )
                )
            self._check_providers(block, state, sharers, holders, cycle)
        for block, holders in true_holders.items():
            if holders and registry.state_of(block) is None:
                self.report(
                    SanitizerViolation(
                        SanitizerCheck.STATE,
                        "cached block has no registry record",
                        cycle=cycle,
                        block=block,
                        holders=holders,
                    )
                )
        self._audit_domains(cycle)

    def _audit_domains(self, cycle: int) -> None:
        """(d) globally: every core with a VM's lines sits in its map."""
        snoop_filter = self._snoop_filter
        if not isinstance(snoop_filter, VirtualSnoopFilter):
            return
        if snoop_filter.policy not in _NON_SPECULATIVE:
            return  # speculative removal legally leaves lines behind
        for core, shadow in self.shadows.items():
            for vm_id, count in shadow.counts().items():
                if count and core not in snoop_filter.domains.domain(vm_id):
                    self.report(
                        SanitizerViolation(
                            SanitizerCheck.DOMAIN,
                            "vCPU map omits a core still holding the VM's lines",
                            cycle=cycle,
                            vm_id=vm_id,
                            core=core,
                            details={
                                "resident_lines": count,
                                "domain": sorted(
                                    snoop_filter.domains.domain(vm_id)
                                ),
                            },
                        )
                    )

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def report(self, violation: SanitizerViolation) -> None:
        """Raise or count one violation, per the configured mode."""
        if self.on_violation is not None:
            self.on_violation(violation)
        if self.mode == "raise":
            raise violation
        if len(self.violations) < MAX_KEPT_VIOLATIONS:
            self.violations.append(violation)
        counts = self.system.stats.sanitizer_violations
        counts[violation.check] = counts.get(violation.check, 0) + 1

    @property
    def violation_count(self) -> int:
        """Violations recorded so far (counting mode; 0 in raise mode)."""
        return sum(self.system.stats.sanitizer_violations.values())

    def summary(self) -> Dict[str, int]:
        """Check/violation counters, for CLI output and soak artifacts."""
        out = dict(self.counters)
        out["violations"] = self.violation_count
        return out


def attach_sanitizer(
    system: "SimulatedSystem", mode: str = "raise"
) -> CoherenceSanitizer:
    """Create a sanitizer for ``system``, attach it, and register it."""
    sanitizer = CoherenceSanitizer(system, mode=mode).attach()
    system.sanitizer = sanitizer
    return sanitizer
