"""Cache line tags.

Virtual snooping extends each cache tag with the **VM identifier** of the
VM that brought the block in (Section IV-B of the paper): the per-VM cache
residence counters are maintained from these tags. The line also carries a
dirty bit so evictions know whether to write back.

A resident line is therefore just its block number (the key of its set
dict) and one int, its *tag*: ``vm_id << 1 | dirty``. The arithmetic
shift keeps negative VM ids, so the untracked hypervisor/dom0 tag
(``UNTRACKED_VM = -1``) reads back unchanged, and every tag of a small
VM id is one of CPython's cached small ints: a line costs only its dict
slot. These helpers are the one statement of the format; the batched
kernel spells the same expressions inline.

Coherence *state* (tokens, ownership, sharers) is deliberately not stored
here — the token registry in :mod:`repro.coherence` is the single source
of truth for protocol state, and caches only track residence/recency.
"""

from __future__ import annotations

DIRTY = 1
"""The tag's dirty bit."""


def make_tag(vm_id: int, dirty: bool = False) -> int:
    """The tag of a line allocated by ``vm_id``."""
    return vm_id << 1 | dirty


def tag_vm(tag: int) -> int:
    """The VM identifier a tag carries."""
    return tag >> 1


def tag_dirty(tag: int) -> bool:
    """Whether a tag's line is dirty."""
    return tag & DIRTY == DIRTY
