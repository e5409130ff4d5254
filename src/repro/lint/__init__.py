"""repro-lint: AST lint for simulation reproducibility hazards.

Line-local rules (RPL000–RPL006), one file at a time: unordered set
iteration, the shared global RNG, id()-keyed caches, wall-clock reads,
mutable default arguments and unstable stats serializer keys.

Suppress a deliberate use with a same-line
``# repro-lint: disable=CODE`` comment (codes or rule names, comma
separated).
"""

from repro.lint.checker import (
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.rules import RULES, RULES_BY_CODE, RULES_BY_NAME, Rule, resolve_rule

__all__ = [
    "RULES",
    "RULES_BY_CODE",
    "RULES_BY_NAME",
    "Rule",
    "Violation",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "resolve_rule",
]
