"""Rule catalogue for repro-lint.

Each rule targets one way a simulation codebase silently loses
reproducibility or correctness. Rules carry a stable code (``RPL###``)
used in reports and in ``# repro-lint: disable=CODE`` suppression
comments (rule *names* are accepted there too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, slug name, and rationale."""

    code: str
    name: str
    summary: str
    rationale: str


RULES: Tuple[Rule, ...] = (
    Rule(
        code="RPL000",
        name="bad-suppression",
        summary="unknown rule code/name in a repro-lint suppression comment",
        rationale=(
            "A typo in a disable= comment would otherwise silently "
            "suppress nothing while the author believes the line is "
            "covered. Unknown tokens are reported so suppressions stay "
            "honest."
        ),
    ),
    Rule(
        code="RPL001",
        name="set-iteration",
        summary="iteration over an unordered set/frozenset literal or call",
        rationale=(
            "Set iteration order depends on element hashes and insertion "
            "history; feeding it into destination ordering, RNG draws or "
            "serialized output makes runs irreproducible. Sort first or "
            "use an ordered container."
        ),
    ),
    Rule(
        code="RPL002",
        name="unseeded-random",
        summary="module-level random.* call (shared, unseeded global RNG)",
        rationale=(
            "The module-level random functions share one hidden global "
            "generator; any import-order change or third-party draw "
            "perturbs every downstream stream. Use a dedicated seeded "
            "random.Random instance."
        ),
    ),
    Rule(
        code="RPL003",
        name="id-keyed-cache",
        summary="id() used as a dict key or cache key",
        rationale=(
            "id() values are memory addresses: they vary across runs and "
            "can be recycled after garbage collection, so id()-keyed "
            "caches alias unrelated objects. Key on stable identity "
            "instead."
        ),
    ),
    Rule(
        code="RPL004",
        name="wall-clock",
        summary="wall-clock time call inside simulation logic",
        rationale=(
            "time.time()/perf_counter()/datetime.now() introduce host "
            "timing into results, breaking determinism and resume. Use "
            "the simulated clock; real-time profiling code must carry an "
            "explicit suppression."
        ),
    ),
    Rule(
        code="RPL005",
        name="mutable-default",
        summary="mutable default argument value",
        rationale=(
            "Default values are evaluated once at definition time, so a "
            "mutable default is shared by every call — state leaks "
            "between invocations. Default to None and construct inside."
        ),
    ),
    Rule(
        code="RPL006",
        name="stats-enum-key",
        summary="dict comprehension in a to_dict/as_dict not keyed by enum .value/.name",
        rationale=(
            "Serialized stats must be keyed by the enum's stable .value "
            "(or .name), not the enum object or arbitrary expressions, or "
            "the JSON artifact is not loadable and not diffable across "
            "runs."
        ),
    ),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}
RULES_BY_NAME: Dict[str, Rule] = {rule.name: rule for rule in RULES}


def resolve_rule(token: str) -> Rule:
    """Look a rule up by code or name; raise KeyError if unknown."""
    token = token.strip()
    if token in RULES_BY_CODE:
        return RULES_BY_CODE[token]
    if token in RULES_BY_NAME:
        return RULES_BY_NAME[token]
    raise KeyError(token)
