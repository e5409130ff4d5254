"""Structured sanitizer violations.

Every invariant the coherence sanitizer enforces has a
:class:`SanitizerCheck` identity; a failed check raises (or, in counting
mode, records) a :class:`SanitizerViolation` carrying the full context a
post-mortem needs: cycle, block address, VM, the offending plan, and the
ground-truth holder set at the moment of the violation.

This module is deliberately dependency-free inside the package so that
:mod:`repro.sim.stats` can key its violation counters by
:class:`SanitizerCheck` without an import cycle.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Optional


class SanitizerCheck(Enum):
    """The invariant families the sanitizer enforces."""

    SNOOP_SAFETY = "snoop-safety"
    """(a) every plan's destination set covers the true holders."""

    RESIDENCE = "residence-counter"
    """(b) ResidenceTracker counts equal the true per-VM line counts."""

    STATE = "coherence-state"
    """(c) registry sharers/owner/dirty agree with cache contents (SWMR)."""

    DOMAIN = "domain-soundness"
    """(d) a VM's vCPU map covers every core holding its private data."""

    RETRY = "retry-accounting"
    """Threshold-policy filter misses are matched by charged retries."""

    SHADOW = "shadow-integrity"
    """The sanitizer's own shadow state diverged from the caches."""

    # Members are singletons; identity hash matches Enum semantics and
    # keeps violation-counter updates cheap.
    __hash__ = object.__hash__


class SanitizerViolation(AssertionError):
    """One violated coherence invariant, with full diagnostic context."""

    def __init__(
        self,
        check: SanitizerCheck,
        message: str,
        *,
        cycle: Optional[int] = None,
        block: Optional[int] = None,
        vm_id: Optional[int] = None,
        core: Optional[int] = None,
        plan: Any = None,
        holders: Any = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.check = check
        self.message = message
        self.cycle = cycle
        self.block = block
        self.vm_id = vm_id
        self.core = core
        self.plan = plan
        self.holders = frozenset(holders) if holders is not None else None
        self.details = dict(details) if details else {}
        super().__init__(self._format())

    def _format(self) -> str:
        parts = [f"[{self.check.value}] {self.message}"]
        context = []
        if self.cycle is not None:
            context.append(f"cycle={self.cycle}")
        if self.block is not None:
            context.append(f"block={self.block:#x}")
        if self.vm_id is not None:
            context.append(f"vm={self.vm_id}")
        if self.core is not None:
            context.append(f"core={self.core}")
        if self.holders is not None:
            context.append(f"holders={sorted(self.holders)}")
        if self.plan is not None:
            context.append(f"plan={self.plan!r}")
        for key, value in self.details.items():
            context.append(f"{key}={value!r}")
        if context:
            parts.append("(" + ", ".join(context) + ")")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (for soak-run artifacts)."""
        return {
            "check": self.check.value,
            "message": self.message,
            "cycle": self.cycle,
            "block": self.block,
            "vm_id": self.vm_id,
            "core": self.core,
            "plan": repr(self.plan) if self.plan is not None else None,
            "holders": sorted(self.holders) if self.holders is not None else None,
            # details is str-keyed by construction (kwargs of report()).
            "details": {key: repr(value) for key, value in self.details.items()},
        }
