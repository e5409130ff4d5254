"""Pattern-driven per-VM workload: service profiles on the pool layout.

:class:`PatternWorkload` is the pattern library's counterpart of
:class:`~repro.workloads.generator.VmWorkload`. It keeps the generator's
*pool composition contract* — guest addresses come from the same
VM-private / VM-shared / content-shared bases, hypervisor and dom0
accesses walk the same hypervisor-space pools — so page classification,
the content-sharing scan, COW dedup and the holder accounting all work
unchanged; only the *within-pool* locality is delegated to
:mod:`~repro.workloads.patterns` samplers, selected per pool by a
:class:`~repro.workloads.service.ServiceProfile`.

Determinism (DESIGN.md §10): every vCPU owns its RNG (seeded
``{seed}/pattern/{service}/{vm_id}/{vcpu}``) and its own sampler
instances, sharing *no* mutable state with its siblings — so one
vCPU's stream does not depend on how the engine interleaves it with
the others. Per access, in fixed order: one category draw, one write
draw, then the pool sampler's draws.

The flip side of per-vCPU independence: a VM's vCPUs walk the shared
and content pools *independently* (same addresses, separate sampler
state), rather than jointly as ``VmWorkload``'s shared cursors do.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, Iterator, List, Tuple

from repro.workloads.generator import (
    BLOCKS_PER_PAGE,
    CONTENT_HOT_BASE,
    DOM0_POOL_BASE,
    DOM0_POOL_PAGES,
    HYP_POOL_BASE,
    HYP_POOL_PAGES,
    PRIVATE_BASE,
    PRIVATE_VCPU_STRIDE,
    SHARED_HOT_BASE,
)
from repro.workloads.patterns import SequentialPattern
from repro.workloads.service import ServiceProfile
from repro.workloads.trace import Initiator, MemoryAccess

_PAGE_SHIFT = BLOCKS_PER_PAGE.bit_length() - 1
_BLOCK_MASK = BLOCKS_PER_PAGE - 1
_tuple_new = tuple.__new__

# Pool indices (order defines the cumulative category table).
_PRIVATE = 0
_SHARED = 1
_CONTENT = 2
_HYP = 3
_DOM0 = 4

# The hypervisor/dom0 pools mirror VmWorkload's streams: a sequential
# walk with its fixed 0.2 write fraction.
_HYP_WRITE_FRACTION = 0.2

# Footprint ceilings, in pages, keeping each pool inside its address
# region (private per-vCPU stride; shared below the content base;
# content below the generator's content-stream base).
_MAX_PRIVATE_PAGES = PRIVATE_VCPU_STRIDE
_MAX_SHARED_PAGES = CONTENT_HOT_BASE - SHARED_HOT_BASE
_MAX_CONTENT_PAGES = 0x8000


def _scaled_pages(pages: int, scale: float, ceiling: int) -> int:
    return max(1, min(round(pages * scale), ceiling))


class PatternWorkload:
    """Deterministic pattern-driven access streams for one VM."""

    # Interface parity with VmWorkload (content friend tie-breaking);
    # pattern VMs have no streaming phase offset.
    content_stream_phase = 0

    def __init__(
        self,
        service: ServiceProfile,
        vm_id: int,
        num_vcpus: int,
        seed: int = 0,
        include_hypervisor: bool = True,
        working_set_scale: float = 1.0,
    ) -> None:
        if working_set_scale <= 0:
            raise ValueError(
                f"working_set_scale must be positive, got {working_set_scale}"
            )
        if num_vcpus < 1:
            raise ValueError(f"need at least one vCPU, got {num_vcpus}")
        self.service = service
        self.vm_id = vm_id
        self.num_vcpus = num_vcpus
        scale = working_set_scale
        self.private_pool_pages = _scaled_pages(
            service.private_pages, scale, _MAX_PRIVATE_PAGES
        )
        self.shared_pool_pages = _scaled_pages(
            service.shared_pages, scale, _MAX_SHARED_PAGES
        )
        self.content_pool_pages = _scaled_pages(
            service.content_pages, scale, _MAX_CONTENT_PAGES
        )
        pool_blocks = [
            self.private_pool_pages * BLOCKS_PER_PAGE,
            self.shared_pool_pages * BLOCKS_PER_PAGE,
            self.content_pool_pages * BLOCKS_PER_PAGE,
            HYP_POOL_PAGES * BLOCKS_PER_PAGE,
            DOM0_POOL_PAGES * BLOCKS_PER_PAGE,
        ]
        weights = [
            service.private_fraction,
            service.shared_fraction,
            service.content_fraction,
            service.hyp_fraction if include_hypervisor else 0.0,
            service.dom0_fraction if include_hypervisor else 0.0,
        ]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._write_fractions = [
            service.write_fraction,
            service.shared_write_fraction,
            service.content_write_fraction,
            _HYP_WRITE_FRACTION,
            _HYP_WRITE_FRACTION,
        ]
        self._initiators = [
            Initiator.GUEST,
            Initiator.GUEST,
            Initiator.GUEST,
            Initiator.HYPERVISOR,
            Initiator.DOM0,
        ]
        patterns = [
            service.pattern_for("private"),
            service.pattern_for("shared"),
            service.pattern_for("content"),
            SequentialPattern(),
            SequentialPattern(),
        ]
        # Per-vCPU state: one RNG and one sampler per pool, built
        # eagerly so snapshot_state works before the first access.
        self._rngs = [
            random.Random(f"{seed}/pattern/{service.name}/{vm_id}/{vcpu}")
            for vcpu in range(num_vcpus)
        ]
        self._samplers = [
            [
                pattern.sampler(blocks, rng)
                for pattern, blocks in zip(patterns, pool_blocks)
            ]
            for rng in self._rngs
        ]
        self._bases = [
            [
                PRIVATE_BASE + vcpu * PRIVATE_VCPU_STRIDE,
                SHARED_HOT_BASE,
                CONTENT_HOT_BASE,
                HYP_POOL_BASE,
                DOM0_POOL_BASE,
            ]
            for vcpu in range(num_vcpus)
        ]
        self._steppers: dict = {}

    # ------------------------------------------------------------------
    # Content-sharing registration (same label scheme as VmWorkload:
    # label == page number, so identical services' pools merge — and
    # heterogeneous services merge on the common prefix of their pools).
    # ------------------------------------------------------------------

    def content_pages(self) -> Iterator[Tuple[int, int]]:
        for i in range(self.content_pool_pages):
            page = CONTENT_HOT_BASE + i
            yield page, page

    # ------------------------------------------------------------------
    # Stream generation.
    # ------------------------------------------------------------------

    def stepper_for(self, vcpu_index: int):
        step = self._steppers.get(vcpu_index)
        if step is None:
            step = self._steppers[vcpu_index] = self.make_stepper(vcpu_index)
        return step

    def make_stepper(self, vcpu_index: int):
        """The vCPU's zero-argument ``(initiator, page, block, is_write)``
        closure. Draw order per access — category draw, write draw,
        sampler draws — is part of the deterministic contract (both
        engines consume it through this closure)."""
        rng_random = self._rngs[vcpu_index].random
        cumulative = self._cumulative
        top = len(cumulative) - 1
        samplers = [sampler.next for sampler in self._samplers[vcpu_index]]
        bases = self._bases[vcpu_index]
        write_fractions = self._write_fractions
        initiators = self._initiators

        def step():
            category = bisect_right(cumulative, rng_random())
            if category > top:
                category = top
            is_write = rng_random() < write_fractions[category]
            offset = samplers[category]()
            return (
                initiators[category],
                bases[category] + (offset >> _PAGE_SHIFT),
                offset & _BLOCK_MASK,
                is_write,
            )

        return step

    # Exists only because bench/spans.py wraps it as a trace seam.
    def stream_chunk(self, vcpu_index: int, count: int):
        raise RuntimeError("chunk path removed")

    def next_access(self, vcpu_index: int) -> MemoryAccess:
        initiator, page, block, is_write = self.stepper_for(vcpu_index)()
        return _tuple_new(
            MemoryAccess,
            (self.vm_id, vcpu_index, initiator, page, block, is_write),
        )

    def stream(self, vcpu_index: int, count: int) -> Iterator[MemoryAccess]:
        for _ in range(count):
            yield self.next_access(vcpu_index)

    # ------------------------------------------------------------------
    # Warm-state snapshots (plain data; see SimulatedSystem.snapshot).
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "kind": "pattern",
            "rngs": [rng.getstate() for rng in self._rngs],
            "samplers": [
                [sampler.snapshot_state() for sampler in per_vcpu]
                for per_vcpu in self._samplers
            ],
        }

    def restore_state(self, captured: dict) -> None:
        if captured.get("kind") != "pattern":
            raise ValueError(
                f"snapshot kind {captured.get('kind')!r} is not a "
                f"pattern-workload capture"
            )
        for rng, state in zip(self._rngs, captured["rngs"]):
            rng.setstate(state)
        for per_vcpu, states in zip(self._samplers, captured["samplers"]):
            for sampler, state in zip(per_vcpu, states):
                sampler.restore_state(state)


def workloads_for_config(config, vms) -> Dict[int, PatternWorkload]:
    """One :class:`PatternWorkload` per VM for a pattern/suite config.

    ``vms`` are the built :class:`~repro.hypervisor.vm.VirtualMachine`
    objects in creation order; suite entries cycle over them.
    """
    from repro.workloads.suites import resolve_services

    services = resolve_services(config.pattern, config.suite, len(vms))
    return {
        vm.vm_id: PatternWorkload(
            services[index],
            vm.vm_id,
            config.vcpus_per_vm,
            seed=config.seed,
            include_hypervisor=config.hypervisor_activity_enabled,
            working_set_scale=config.working_set_scale,
        )
        for index, vm in enumerate(vms)
    }
