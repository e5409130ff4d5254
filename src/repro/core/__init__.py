"""Virtual snooping — the paper's contribution.

vCPU maps (snoop domains), per-VM cache residence counters, and the
filter policies that decide each coherence transaction's destination set.
"""

from repro.core.clock import SimClock
from repro.core.domains import RemovalRecord, SnoopDomainTable
from repro.core.filter import ContentPolicy, SnoopPolicy, VirtualSnoopFilter
from repro.core.residence import UNTRACKED_VM, ResidenceTracker

__all__ = [
    "ContentPolicy",
    "RemovalRecord",
    "ResidenceTracker",
    "SimClock",
    "SnoopDomainTable",
    "SnoopPolicy",
    "UNTRACKED_VM",
    "VirtualSnoopFilter",
]
