"""The simulated cycle clock shared by the engine and its observers.

The engine writes ``clock.now`` as it advances; the filter, the snoop
domain table, the sanitizer and the tracer call ``clock()`` to stamp
events. The clock is a leaf: it references nothing, so components can
share it without tying themselves to the engine, and it outlives the
engine (a system can still be audited after its engine is gone).
"""

from __future__ import annotations


class SimClock:
    """Current simulated cycle; calling it returns ``now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now
