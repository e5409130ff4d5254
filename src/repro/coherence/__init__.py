"""Token-coherence substrate: registry, request plans, protocol engine."""

from repro.coherence.plan import RequestPlan
from repro.coherence.protocol import ProtocolError, TokenProtocol, TransactionResult
from repro.coherence.registry import MEMORY, TokenRegistry
from repro.coherence.stats import CoherenceStats

__all__ = [
    "MEMORY",
    "CoherenceStats",
    "ProtocolError",
    "RequestPlan",
    "TokenProtocol",
    "TokenRegistry",
    "TransactionResult",
]
