"""Guest-physical to host-physical memory management with sharing types.

The hypervisor owns the guest-physical → host-physical mapping (nested /
shadow page tables). Virtual snooping stores each page's sharing type in
two unused PTE bits; this module models the mapping, the type bits, and
the two transitions that matter to the protocol:

* **content sharing** — N guest pages with identical content collapse to
  one host page marked ``RO_SHARED`` (memory flushed clean first), and
* **copy-on-write** — a store to an RO-shared page allocates a fresh
  private host page for the writing VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.mem.pagetype import PageType
from repro.mem.physical import HostMemory


@dataclass(slots=True)
class HostPageInfo:
    """Hypervisor-side record for one allocated host page."""

    page_type: PageType
    owner_vm: Optional[int]  # None for hypervisor-owned or multi-VM pages
    sharer_vms: Set[int]


class TranslationFault(KeyError):
    """Guest page has no mapping (would be a hypervisor page fault)."""


class MemoryManager:
    """Per-VM page tables plus host-page type tracking."""

    def __init__(self, host: HostMemory) -> None:
        self.host = host
        # vm_id -> {guest_page -> host_page}
        self._tables: Dict[int, Dict[int, int]] = {}
        self._host_info: Dict[int, HostPageInfo] = {}
        self.cow_faults = 0
        self.shared_pages_created = 0
        # Called with each host page returned to the allocator; the
        # coherence bridge uses it to flush stale cached copies before
        # the page can be recycled to another VM.
        self.page_free_hook: Optional[Callable[[int], None]] = None
        # Fired whenever an *existing* translation (mapping or page type)
        # changes; the engine registers its translation-memo clear here.
        # Pure additions (lazy map_page) need no notification: a memo can
        # only hold entries for pages that have already been translated.
        self.translation_change_hook: Optional[Callable[[], None]] = None

    def _translations_changed(self) -> None:
        hook = self.translation_change_hook
        if hook is not None:
            hook()

    def _free_host_page(self, host_page: int) -> None:
        del self._host_info[host_page]
        self.host.free(host_page)
        self._translations_changed()
        if self.page_free_hook is not None:
            self.page_free_hook(host_page)

    def create_address_space(self, vm_id: int) -> None:
        if vm_id in self._tables:
            raise ValueError(f"address space for VM {vm_id} already exists")
        self._tables[vm_id] = {}

    # ------------------------------------------------------------------
    # Mapping and translation.
    # ------------------------------------------------------------------

    def map_page(
        self,
        vm_id: int,
        guest_page: int,
        page_type: PageType = PageType.VM_PRIVATE,
    ) -> int:
        """Allocate a host page for ``guest_page`` and install the mapping."""
        table = self._table(vm_id)
        if guest_page in table:
            raise ValueError(
                f"guest page {guest_page} of VM {vm_id} is already mapped"
            )
        host_page = self.host.allocate()
        table[guest_page] = host_page
        self._host_info[host_page] = HostPageInfo(
            page_type=page_type, owner_vm=vm_id, sharer_vms={vm_id}
        )
        return host_page

    def translate(self, vm_id: int, guest_page: int) -> Tuple[int, PageType]:
        """Guest page → (host page, sharing type); lazily maps on first touch.

        Lazy mapping mirrors demand paging: the first access by a VM to a
        guest page allocates its host page as VM-private. This is the
        simulator's per-access hot path, so the table lookup is inlined
        rather than routed through :meth:`_table`.
        """
        table = self._tables.get(vm_id)
        if table is None:
            raise TranslationFault(f"VM {vm_id} has no address space")
        host_page = table.get(guest_page)
        if host_page is None:
            host_page = self.map_page(vm_id, guest_page)
        return host_page, self._host_info[host_page].page_type

    def page_type_of(self, host_page: int) -> PageType:
        return self._info(host_page).page_type

    def owner_of(self, host_page: int) -> Optional[int]:
        return self._info(host_page).owner_vm

    def sharers_of(self, host_page: int) -> Set[int]:
        return set(self._info(host_page).sharer_vms)

    # ------------------------------------------------------------------
    # Sharing-type transitions.
    # ------------------------------------------------------------------

    def mark_rw_shared(self, vm_id: int, guest_page: int) -> int:
        """Mark a page RW-shared (hypervisor / inter-VM channel page)."""
        host_page, _ = self.translate(vm_id, guest_page)
        info = self._info(host_page)
        info.page_type = PageType.RW_SHARED
        info.owner_vm = None
        self._translations_changed()
        return host_page

    def share_content(self, mappings: List[Tuple[int, int]]) -> int:
        """Collapse identical pages onto one RO-shared host page.

        ``mappings`` lists (vm_id, guest_page) pairs whose contents were
        found identical by the content-sharing scan. The first pair's
        host page becomes the shared page; the others' host pages are
        freed and their page tables are re-pointed. Returns the shared
        host page. The caller is responsible for flushing dirty cached
        blocks of all affected host pages (see
        ``Hypervisor.share_identical_pages``).
        """
        if len(mappings) < 2:
            raise ValueError("content sharing needs at least two mappings")
        canonical_vm, canonical_guest = mappings[0]
        shared_host, _ = self.translate(canonical_vm, canonical_guest)
        info = self._info(shared_host)
        info.page_type = PageType.RO_SHARED
        info.owner_vm = None
        info.sharer_vms = {canonical_vm}
        for vm_id, guest_page in mappings[1:]:
            table = self._table(vm_id)
            old_host = table.get(guest_page)
            if old_host is not None and old_host != shared_host:
                self._free_host_page(old_host)
            table[guest_page] = shared_host
            info.sharer_vms.add(vm_id)
        self.shared_pages_created += 1
        self._translations_changed()
        return shared_host

    def copy_on_write(self, vm_id: int, guest_page: int) -> int:
        """Break RO sharing on a store: give ``vm_id`` a private copy.

        Returns the new private host page. If this VM was the last sharer
        the old host page is freed.
        """
        table = self._table(vm_id)
        old_host = table.get(guest_page)
        if old_host is None:
            raise TranslationFault(f"VM {vm_id} guest page {guest_page} unmapped")
        info = self._info(old_host)
        if info.page_type is not PageType.RO_SHARED:
            raise ValueError(
                f"copy_on_write on non-RO-shared page {old_host} "
                f"({info.page_type})"
            )
        new_host = self.host.allocate()
        table[guest_page] = new_host
        self._host_info[new_host] = HostPageInfo(
            page_type=PageType.VM_PRIVATE, owner_vm=vm_id, sharer_vms={vm_id}
        )
        info.sharer_vms.discard(vm_id)
        if not info.sharer_vms:
            self._free_host_page(old_host)
        self.cow_faults += 1
        self._translations_changed()
        return new_host

    def iter_shared_pages(self):
        """Yield (host_page, frozenset(sharer_vms)) for RO-shared pages."""
        for host_page, info in self._host_info.items():
            if info.page_type is PageType.RO_SHARED:
                yield host_page, frozenset(info.sharer_vms)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _table(self, vm_id: int) -> Dict[int, int]:
        table = self._tables.get(vm_id)
        if table is None:
            raise TranslationFault(f"VM {vm_id} has no address space")
        return table

    def _info(self, host_page: int) -> HostPageInfo:
        info = self._host_info.get(host_page)
        if info is None:
            raise TranslationFault(f"host page {host_page} is not tracked")
        return info
