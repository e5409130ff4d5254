"""Request plans: what a snoop-filter policy tells the protocol to do.

A :class:`RequestPlan` is produced by the virtual-snooping filter
(:mod:`repro.core.filter`) for one coherence transaction and consumed by
the protocol engine. It lists the destination set of each transient
attempt (Token Coherence allows safe retries), whether the transaction
targets a content-shared (RO) page, and which VMs' provider copies may
answer it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.mem.pagetype import PageType

EMPTY: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class RequestPlan:
    """Instructions for one coherence transaction.

    Attributes:
        attempts: destination core sets, one per transient attempt, in
            order. The requester core is included in its own destination
            set when its tag must be snooped (paper counts it). The final
            attempt of a fallback-capable policy is a broadcast.
        page_type: sharing type of the page being accessed.
        ro_shared: convenience flag, true iff ``page_type`` is RO_SHARED.
        provider_vms: VM ids whose designated provider copies may supply
            data for an RO-shared read (own VM first, then friend VM).
        last_is_persistent: whether reaching the final attempt counts as a
            persistent-request escalation (TokenB fallback).
        stats_intra_domain: requesting VM's snoop domain, carried for
            data-holder statistics (Table VI) regardless of policy.
        stats_friend_domain: friend VM's snoop domain, for the same stats.
    """

    attempts: Tuple[FrozenSet[int], ...]
    page_type: PageType = PageType.VM_PRIVATE
    provider_vms: Tuple[int, ...] = ()
    last_is_persistent: bool = False
    stats_intra_domain: FrozenSet[int] = EMPTY
    stats_friend_domain: FrozenSet[int] = EMPTY

    def __post_init__(self) -> None:
        if not self.attempts:
            raise ValueError("a RequestPlan needs at least one attempt")

    @property
    def ro_shared(self) -> bool:
        return self.page_type is PageType.RO_SHARED

    @staticmethod
    def broadcast(all_cores: FrozenSet[int], page_type: PageType) -> "RequestPlan":
        """The baseline TokenB plan: one broadcast attempt."""
        return RequestPlan(attempts=(all_cores,), page_type=page_type)
