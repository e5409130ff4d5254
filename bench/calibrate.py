"""A fixed pure-Python loop that gauges how fast the host runs right now.

Shared machines drift: the same pass over a workload's cells can take
15% longer for minutes at a time when neighbours are busy. The loop
below does the simulator's kind of work (dict probes and LRU-style
re-insertion, heap replacement, integer arithmetic) without importing
any of its code, so a change to the simulator cannot change it. Each
pass samples it between cells; the end-to-end times are scaled by
``REFERENCE_S / median(samples)``, i.e. reported in seconds of a host
on which one loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import time
from typing import List

# Median seconds of one loop on the machine the committed baselines ran
# on (2-vCPU Intel Xeon VM, Python 3.11). Fixed: changing it rescales
# every end-to-end time.
REFERENCE_S = 0.018
# Loops per sample; the median of a sample's loops discounts a burst.
LOOPS = 5
_ITERATIONS = 25_000


def loop() -> float:
    """Seconds one fixed loop takes."""
    start = time.perf_counter()
    table = {}
    heap = [(i, i) for i in range(64)]
    x = 12345
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0x3FFFF
        if key in table:
            value = table.pop(key)
            table[key] = value + 1
        else:
            table[key] = 1
        heapq.heapreplace(heap, (heap[0][0] + (x & 7), i))
    return time.perf_counter() - start


def sample() -> List[float]:
    return [loop() for _ in range(LOOPS)]
