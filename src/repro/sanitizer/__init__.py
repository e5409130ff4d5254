"""Runtime coherence sanitizer: proves snoop-filter safety during runs.

Enable via ``SimConfig(sanitize=True)`` or ``repro-sim run --sanitize``.
See :mod:`repro.sanitizer.core` for the invariant catalogue.

``repro.sim.stats`` imports :mod:`repro.sanitizer.violation` for every
cell, so this package loads nothing up front: the module
``__getattr__`` below resolves each public name from its submodule on
first access (``from repro.sanitizer import ShadowCache`` works as
before), and an unsanitized cell never loads the sanitizer itself.
"""

from importlib import import_module
from typing import Any

# Every public name -> the submodule defining it.
_SUBMODULE = {
    "MAX_KEPT_VIOLATIONS": "core",
    "CoherenceSanitizer": "core",
    "SanitizerCheck": "violation",
    "SanitizerViolation": "violation",
    "ShadowCache": "shadow",
    "attach_sanitizer": "core",
}


def __getattr__(name: str) -> Any:
    submodule = _SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


__all__ = sorted(_SUBMODULE)
