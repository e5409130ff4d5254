"""Page sharing types.

Virtual snooping classifies every host-physical page into one of three
types (Section IV-A), recorded in two unused page-table-entry bits and
cached in the TLB:

* ``VM_PRIVATE`` — used by exactly one VM; snoops multicast to the VM's
  vCPU map.
* ``RW_SHARED`` — shared read-write with the hypervisor, dom0, or another
  VM via an inter-VM communication channel; snoops must broadcast.
* ``RO_SHARED`` — content-based shared page, guaranteed read-only with
  a clean copy in memory; eligible for the Section VI optimisations.
"""

from __future__ import annotations

from enum import Enum


class PageType(Enum):
    VM_PRIVATE = "vm_private"
    RW_SHARED = "rw_shared"
    RO_SHARED = "ro_shared"

    # Members are singletons compared by identity, so the identity hash
    # finds the same dict entries as Enum's value hash, but resolves in C
    # instead of Python, which matters for the per-access stats dicts
    # keyed by page type. It is an address, so the iteration order of a
    # set of members changes from process to process even under a fixed
    # PYTHONHASHSEED: iterate PageType itself, never a set of members.
    __hash__ = object.__hash__

    @property
    def broadcast_required(self) -> bool:
        """Whether correctness demands a full broadcast for this type
        under base virtual snooping (before Section VI optimisations)."""
        return self is PageType.RW_SHARED
