"""Span-stack tracing of the simulator's layers, installed from outside.

The traced pass wraps public callables of a *built* system before
``engine_for`` binds them, so the engine, the protocol and the filter
call the wrappers without knowing they are there. Each wrapper records,
per layer name, the number of calls, the total time and the self time
(total minus the time of traced spans it caused). The span stack's root
is the measured phase: whatever the root's direct children do not cover
is the engine loop's own time (``sim.loop_self_s``).

Two seams are module-level rather than per-system:
``repro.sim.mtstream.WordStream.raw`` (the MT19937 word fetch) and
``repro.sim.kernel._encode`` (the word-path decode). ``_encode`` is
private; it is the one place the word path's decode cost can be
separated from the kernel loop.

A seam that no longer exists raises :class:`SeamMissing` instead of
reading as a layer that costs nothing.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

# (layer name, path from the built system to the owner, attribute).
SYSTEM_SEAMS = (
    ("core.plan", ("snoop_filter",), "plan"),
    ("coherence.execute", ("protocol",), "execute"),
    ("coherence.handle_eviction", ("protocol",), "handle_eviction"),
    ("interconnect.multicast", ("network",), "multicast"),
    ("interconnect.send", ("network",), "send"),
    ("mem.translate", ("hypervisor", "memory"), "translate"),
    ("hypervisor.write_to_page", ("hypervisor",), "write_to_page"),
    ("hypervisor.swap_vcpus", ("hypervisor",), "swap_vcpus"),
)
WORKLOAD_SEAM = ("workloads.stream_chunk", "stream_chunk")
# (layer name, module, owner attribute or None for the module itself,
# attribute).
MODULE_SEAMS = (
    ("workloads.word_raw", "repro.sim.mtstream", "WordStream", "raw"),
    ("workloads.word_decode", "repro.sim.kernel", None, "_encode"),
)
LAYERS = tuple(name for name, _, _ in SYSTEM_SEAMS) + (WORKLOAD_SEAM[0],) + tuple(
    name for name, _, _, _ in MODULE_SEAMS
)


class SeamMissing(RuntimeError):
    """A callable the traced pass wraps is gone or no longer callable."""


class SpanTracer:
    """Per-layer call counts, total and self nanoseconds.

    ``busy_wait_ns`` maps a layer name to a spin added inside that
    layer's span on every call; tests use it to check that an injected
    slowdown lands in its own row.
    """

    def __init__(self, busy_wait_ns: Optional[Dict[str, int]] = None) -> None:
        self.busy_wait_ns = dict(busy_wait_ns or {})
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.total_ns: Dict[str, int] = dict(self.calls)
        self.self_ns: Dict[str, int] = dict(self.calls)
        # One entry per open span: the time its traced children took.
        # Entry 0 is the root, the phase being measured.
        self._stack = [0]

    def reset(self) -> None:
        """Zero every counter (in place: the wrappers hold the dicts)."""
        for table in (self.calls, self.total_ns, self.self_ns):
            for name in table:
                table[name] = 0
        self._stack[:] = [0]

    @property
    def root_children_ns(self) -> int:
        """Time the root's direct children took since the last reset."""
        return self._stack[0]

    def summary(self) -> Dict[str, list]:
        """``{layer: [calls, total_ns, self_ns]}``, JSON-ready."""
        return {
            name: [self.calls[name], self.total_ns[name], self.self_ns[name]]
            for name in LAYERS
        }

    def wrap(self, name: str, fn):
        if name not in self.calls:
            raise KeyError(f"unknown layer {name!r}")
        clock = time.perf_counter_ns
        stack = self._stack
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        spin = self.busy_wait_ns.get(name, 0)

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                if spin:
                    until = start + spin
                    while clock() < until:
                        pass
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                total_ns[name] += elapsed
                self_ns[name] += elapsed - children

        return traced


def _seam(owner, attribute: str, name: str):
    fn = getattr(owner, attribute, None)
    if not callable(fn):
        raise SeamMissing(
            f"traced layer {name}: {type(owner).__name__}.{attribute} is "
            f"missing or not callable"
        )
    return fn


def install(system, tracer: SpanTracer) -> None:
    """Wrap the built system's seams; call before ``engine_for``."""
    for name, path, attribute in SYSTEM_SEAMS:
        owner = system
        for step in path:
            owner = getattr(owner, step, None)
            if owner is None:
                raise SeamMissing(f"traced layer {name}: system has no {'.'.join(path)}")
        setattr(owner, attribute, tracer.wrap(name, _seam(owner, attribute, name)))
    name, attribute = WORKLOAD_SEAM
    for workload in system.workloads.values():
        setattr(
            workload, attribute, tracer.wrap(name, _seam(workload, attribute, name))
        )


@contextmanager
def module_seams(tracer: SpanTracer) -> Iterator[None]:
    """Wrap the module-level seams for the duration of the block."""
    patched = []
    try:
        for name, module_name, owner_name, attribute in MODULE_SEAMS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
                if owner is None:
                    raise SeamMissing(
                        f"traced layer {name}: {module_name}.{owner_name} is missing"
                    )
            original = _seam(owner, attribute, name)
            patched.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original))
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
