"""The benchmark's workloads: each a fixed list of simulation cells.

A cell is one ``(SimConfig, app)`` pair, as an experiment campaign runs
it. The workloads put one workload on each side of the two path choices
the batched kernel makes:

* generation path: ``pinned-hits`` and ``migration-fast`` take the word
  path (calibrated ``VmWorkload`` apps); ``miss-web`` and
  ``content-writes`` take the chunk path (pattern suites);
* kernel: ``miss-web`` is miss-heavy, where the bulk-miss seam commits
  most transactions inline; ``pinned-hits`` is hit-dominated, where the
  loop and generation do nearly all the work.

Access budgets keep one pass over a workload's cells to a few seconds,
so that a run can repeat it and report a median.

Importing this module puts the checkout's ``src`` first on ``sys.path``,
so the benchmark measures the code beside it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.filter import ContentPolicy, SnoopPolicy  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402

# --smoke divides every access budget by this.
SMOKE_DIVISOR = 20

# 4K L1 / 16K L2: small enough that most accesses of the suites miss.
_SMALL_CACHES = dict(l1_size=4 * 1024, l2_size=16 * 1024)


class Cell(NamedTuple):
    name: str
    app: str
    config: SimConfig


def _budget(accesses: int, warmup: int, smoke: bool) -> dict:
    if smoke:
        accesses //= SMOKE_DIVISOR
        warmup //= SMOKE_DIVISOR
    return dict(accesses_per_vcpu=accesses, warmup_accesses_per_vcpu=warmup)


def pinned_hits(seed: int, smoke: bool) -> List[Cell]:
    """Table II geometry, vsnoop-base, no migration: ~97% of accesses hit."""
    return [
        Cell(app, app, SimConfig(seed=seed, **_budget(12_000, 4_000, smoke)))
        for app in ("fft", "ocean", "canneal", "specjbb")
    ]


def migration_fast(seed: int, smoke: bool) -> List[Cell]:
    """The Figure 8 regime: counter policies under 0.5 / 0.1 ms swaps."""
    return [
        Cell(
            f"{app}/{policy.value}/{period}ms",
            app,
            SimConfig.migration_study(
                snoop_policy=policy,
                migration_period_ms=period,
                seed=seed,
                **_budget(5_000, 8_000, smoke),
            ),
        )
        for app in ("fft", "ocean")
        for policy in (SnoopPolicy.VSNOOP_COUNTER, SnoopPolicy.VSNOOP_COUNTER_THRESHOLD)
        for period in (0.5, 0.1)
    ]


def miss_web(seed: int, smoke: bool) -> List[Cell]:
    """Read-heavy suites in small caches: ~70% of accesses transact."""
    # Suite configs ignore the app profile's memory behaviour; fft only
    # fills the required argument, as the pattern study does.
    return [
        Cell(
            suite,
            "fft",
            SimConfig(
                suite=suite, seed=seed, **_SMALL_CACHES, **_budget(12_000, 4_000, smoke)
            ),
        )
        for suite in ("web-farm", "hot-neighbors")
    ]


def content_writes(seed: int, smoke: bool) -> List[Cell]:
    """Write-heavy backups with content sharing: dirty victims, COW."""
    return [
        Cell(
            policy.value,
            "fft",
            SimConfig(
                suite="backup-window",
                content_policy=policy,
                content_sharing_enabled=True,
                hypervisor_activity_enabled=True,
                seed=seed,
                **_SMALL_CACHES,
                **_budget(6_000, 4_000, smoke),
            ),
        )
        for policy in (ContentPolicy.MEMORY_DIRECT, ContentPolicy.INTRA_VM)
    ]


WORKLOADS: Dict[str, Callable[[int, bool], List[Cell]]] = {
    "pinned-hits": pinned_hits,
    "migration-fast": migration_fast,
    "miss-web": miss_web,
    "content-writes": content_writes,
}
