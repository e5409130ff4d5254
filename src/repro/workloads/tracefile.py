"""Trace persistence: record, save, load and replay access streams.

The simulator is trace-driven, so any source of
:class:`~repro.workloads.trace.MemoryAccess` records can drive it — the
synthetic generators, or real traces captured elsewhere. This module
provides a simple line-oriented text format and a
:class:`TraceReplayWorkload` that satisfies the same interface the
engine expects from :class:`~repro.workloads.generator.VmWorkload`.

Format (one access per line, space-separated)::

    vm_id vcpu_index initiator guest_page block_index is_write

with ``initiator`` in {g, d, h} and ``is_write`` in {0, 1}. Lines
starting with ``#`` are comments.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.workloads.trace import Initiator, MemoryAccess

_INITIATOR_CODE = {
    Initiator.GUEST: "g",
    Initiator.DOM0: "d",
    Initiator.HYPERVISOR: "h",
}
_CODE_INITIATOR = {code: initiator for initiator, code in _INITIATOR_CODE.items()}


class TraceFormatError(ValueError):
    """A trace file line could not be parsed."""


def format_access(access: MemoryAccess) -> str:
    """One access as a trace-file line (without newline)."""
    return (
        f"{access.vm_id} {access.vcpu_index} "
        f"{_INITIATOR_CODE[access.initiator]} "
        f"{access.guest_page} {access.block_index} "
        f"{1 if access.is_write else 0}"
    )


def parse_access(line: str) -> MemoryAccess:
    """Parse one trace-file line."""
    fields = line.split()
    if len(fields) != 6:
        raise TraceFormatError(f"expected 6 fields, got {len(fields)}: {line!r}")
    try:
        initiator = _CODE_INITIATOR[fields[2]]
    except KeyError:
        raise TraceFormatError(f"unknown initiator code {fields[2]!r}") from None
    try:
        vm_id = int(fields[0])
        vcpu_index = int(fields[1])
        guest_page = int(fields[3])
        block_index = int(fields[4])
        is_write = fields[5] == "1"
    except ValueError as error:
        raise TraceFormatError(f"bad numeric field in {line!r}") from error
    if not 0 <= block_index < 64:
        raise TraceFormatError(f"block_index {block_index} out of range")
    return MemoryAccess(vm_id, vcpu_index, initiator, guest_page, block_index, is_write)


def save_trace(path: Union[str, Path], accesses: Iterable[MemoryAccess]) -> int:
    """Write accesses to ``path``; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        handle.write("# repro trace v1: vm vcpu initiator page block write\n")
        for access in accesses:
            handle.write(format_access(access) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[MemoryAccess]:
    """Read every access from ``path``."""
    accesses: List[MemoryAccess] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            accesses.append(parse_access(line))
    return accesses


def record_workload(workload, accesses_per_vcpu: int) -> List[MemoryAccess]:
    """Capture a synthetic workload's streams, round-robin interleaved.

    Accepts any generator with the engine's workload interface
    (``VmWorkload``, ``PatternWorkload``, ...): only ``num_vcpus`` and
    ``next_access`` are used.
    """
    captured: List[MemoryAccess] = []
    for _ in range(accesses_per_vcpu):
        for vcpu in range(workload.num_vcpus):
            captured.append(workload.next_access(vcpu))
    return captured


class TraceReplayWorkload:
    """Replays a recorded trace through the engine's workload interface.

    Accesses are partitioned per vCPU, preserving their relative order.
    When a vCPU's stream runs out the replay wraps around (``loop=True``,
    the default) or raises ``StopIteration``.
    """

    def __init__(
        self,
        vm_id: int,
        accesses: Iterable[MemoryAccess],
        num_vcpus: int,
        loop: bool = True,
        content_page_labels: Iterable[Tuple[int, int]] = (),
    ) -> None:
        self.vm_id = vm_id
        self.num_vcpus = num_vcpus
        self.loop = loop
        self.content_stream_phase = 0  # interface parity with VmWorkload
        self._streams: Dict[int, List[MemoryAccess]] = {
            vcpu: [] for vcpu in range(num_vcpus)
        }
        self._positions = [0] * num_vcpus
        self._content_pages = list(content_page_labels)
        self._steppers: dict = {}
        for access in accesses:
            if access.vm_id != vm_id:
                continue
            if not 0 <= access.vcpu_index < num_vcpus:
                raise ValueError(
                    f"trace access for vCPU {access.vcpu_index} but VM has "
                    f"{num_vcpus} vCPUs"
                )
            self._streams[access.vcpu_index].append(access)
        if all(not stream for stream in self._streams.values()):
            raise ValueError(f"trace contains no accesses for VM {vm_id}")

    def stepper_for(self, vcpu_index: int):
        """The vCPU's cached zero-argument ``(initiator, guest_page,
        block_index, is_write)`` closure over its recorded list and
        position: wraps at the end when looping, else raises
        ``StopIteration``."""
        step = self._steppers.get(vcpu_index)
        if step is None:
            step = self._steppers[vcpu_index] = self._make_stepper(vcpu_index)
        return step

    def _make_stepper(self, vcpu_index: int):
        stream = self._streams[vcpu_index]
        # Shared with snapshot_state/restore_state, which edit it in place.
        positions = self._positions
        loop = self.loop

        def step():
            if not stream:
                raise StopIteration(f"vCPU {vcpu_index} has no trace accesses")
            position = positions[vcpu_index]
            if position >= len(stream):
                if not loop:
                    raise StopIteration(f"vCPU {vcpu_index} trace exhausted")
                position = 0
            positions[vcpu_index] = position + 1
            access = stream[position]
            return (
                access.initiator,
                access.guest_page,
                access.block_index,
                access.is_write,
            )

        return step

    def next_access(self, vcpu_index: int) -> MemoryAccess:
        return MemoryAccess(
            self.vm_id, vcpu_index, *self.stepper_for(vcpu_index)()
        )

    def stream(self, vcpu_index: int, count: int) -> Iterator[MemoryAccess]:
        for _ in range(count):
            yield self.next_access(vcpu_index)

    def snapshot_state(self) -> dict:
        """Replay positions as plain data (warm-state snapshot layer)."""
        return {"kind": "trace", "positions": list(self._positions)}

    def restore_state(self, captured: dict) -> None:
        self._positions[:] = captured["positions"]

    def content_pages(self) -> Iterator[Tuple[int, int]]:
        """Content labels are not derivable from a raw trace; callers may
        supply them at construction (``content_page_labels``)."""
        return iter(self._content_pages)
