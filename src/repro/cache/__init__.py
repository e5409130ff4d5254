"""Cache substrate: line tags, set-associative arrays, per-core hierarchies."""

from repro.cache.hierarchy import AccessResult, PrivateHierarchy
from repro.cache.line import make_tag, tag_dirty, tag_vm
from repro.cache.setassoc import CacheObserver, Line, SetAssociativeCache

__all__ = [
    "AccessResult",
    "CacheObserver",
    "Line",
    "PrivateHierarchy",
    "SetAssociativeCache",
    "make_tag",
    "tag_dirty",
    "tag_vm",
]
