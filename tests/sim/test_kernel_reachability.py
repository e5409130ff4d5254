"""Reachability gate for the batched kernel's access loop.

Every executable line of ``BatchedEngine._run_phase`` and of its nested
bulk-miss seam (``bulk``) and counter flush (``flush``) must run in one
of a few small cells, or sit on :data:`ALLOWLIST` with a reason. The
seam is the only optimised copy of the coherence protocol, and the
differential suites can only vouch for lines that run: a line no cell
reaches is either dead (delete it) or a path whose bit-identity nobody
checks (add a cell that reaches it). Each cell here is also a kernel
differential case, so every line it reaches is compared against the
reference engine.

Executable lines come from ``co_lines()`` of the three code objects; a
stdlib ``sys.settrace`` line tracer, limited to those code objects,
records which of them run. A ``def`` line is the function's entry and
reports a call event, not a line event, so it is not counted.
"""

import sys
from dataclasses import replace
from types import CodeType

from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.sim.config import SimConfig
from repro.sim.kernel import BatchedEngine
from repro.workloads.profiles import PROFILES
from tests.sim.differential import assert_same_end_state, run_system

# Stripped source line -> why no cell needs to run it.
ALLOWLIST = {
    "trackers[core].on_evict(victim_block, victim_vm)": (
        "residence-counter underflow diagnostic: safety code that raises "
        "on a tracker bug, unreachable while the counters are right"
    ),
}

BASE = SimConfig(
    num_cores=4,
    mesh_width=2,
    mesh_height=2,
    num_vms=2,
    vcpus_per_vm=2,
    accesses_per_vcpu=600,
    warmup_accesses_per_vcpu=200,
)
SMALL_CACHES = dict(l1_size=1024, l1_ways=2, l2_size=4096, l2_ways=4)

# (what the cell is for, config, app)
CELLS = [
    ("plain", BASE, "fft"),
    (
        # A watermark above any per-core count keeps dropping cores
        # that still hold lines from the snoop domain, so first
        # attempts fail: the gets-retry, getm-contended and
        # store-upgrade bails and their retry ladders.
        "retry ladders",
        replace(
            BASE,
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER_THRESHOLD,
            counter_threshold=1024,
            migration_period_ms=0.05,
            **SMALL_CACHES,
        ),
        "fft",
    ),
    (
        # Content sharing with hypervisor and dom0 streams: RO-provider
        # scans, provider tables retired with their last copy,
        # hypervisor/dom0 translation memo hits and a store to a page
        # whose read memoised it RO-shared (copy-on-write on a memo hit).
        "content + hypervisor",
        replace(
            BASE,
            content_sharing_enabled=True,
            hypervisor_activity_enabled=True,
            content_policy=ContentPolicy.INTRA_VM,
            **SMALL_CACHES,
        ),
        replace(PROFILES["specweb"], content_write_fraction=0.05),
    ),
    (
        "metrics samples mid-phase",
        replace(BASE, metrics_sample_every=2000, migration_period_ms=0.2),
        "fft",
    ),
    # The sanitizer turns the seam off: every transaction goes through
    # the reference _transact.
    ("seam off", replace(BASE, sanitize=True), "fft"),
]


def _traced_code() -> dict:
    code = BatchedEngine._run_phase.__code__
    nested = {
        const.co_name: const
        for const in code.co_consts
        if isinstance(const, CodeType)
    }
    return {code: "_run_phase", nested["bulk"]: "bulk", nested["flush"]: "flush"}


def _executable(code: CodeType) -> set:
    return {
        line for _, _, line in code.co_lines() if line is not None
    } - {code.co_firstlineno}


def test_every_loop_line_runs():
    targets = _traced_code()
    reached = {code: set() for code in targets}

    def trace_lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code in targets else None

    for _, config, app in CELLS:
        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            batched, _ = run_system(replace(config, kernel="batched"), app)
        finally:
            sys.settrace(previous)
        reference, _ = run_system(replace(config, kernel="reference"), app)
        assert_same_end_state(batched, reference)

    with open(BatchedEngine._run_phase.__code__.co_filename) as handle:
        source = handle.read().splitlines()
    allowed = set()
    unreached = []
    for code, name in targets.items():
        for line in sorted(_executable(code) - reached[code]):
            text = source[line - 1].strip()
            if text in ALLOWLIST:
                allowed.add(text)
            else:
                unreached.append(f"{name}:{line}: {text}")
    assert not unreached, "loop lines no cell runs:\n" + "\n".join(unreached)
    # An entry that the cells now reach is stale: drop it.
    assert allowed == set(ALLOWLIST)
