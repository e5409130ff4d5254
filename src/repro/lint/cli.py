"""Console entry point: ``repro-lint [paths] [--json] [--list-rules]``.

Runs the line-local rules (RPL000–RPL006) over each file. Exit status:
0 when clean, 1 when violations were found, 2 on usage or parse errors
— the same contract CI relies on.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.lint.checker import Violation, lint_paths
from repro.lint.rules import RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Reproducibility lint for the virtual-snooping simulator: "
            "line-local rules for unordered-set iteration, global-RNG "
            "use, id()-keyed caches, wall-clock reads, mutable defaults "
            "and unstable stats serialization keys."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit violations as a JSON array (for CI consumption)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules(as_json: bool) -> int:
    if as_json:
        print(
            json.dumps(
                [
                    {
                        "code": rule.code,
                        "name": rule.name,
                        "summary": rule.summary,
                        "rationale": rule.rationale,
                    }
                    for rule in RULES
                ],
                indent=2,
            )
        )
    else:
        for rule in RULES:
            print(f"{rule.code}  {rule.name}")
            print(f"    {rule.summary}")
            print(f"    {rule.rationale}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules(args.json)
    try:
        violations: List[Violation] = lint_paths(args.paths)
    except (OSError, ValueError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps([v.to_dict() for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation.format())
        if violations:
            print(
                f"repro-lint: {len(violations)} violation(s) "
                f"(suppress intentional ones with "
                f"'# repro-lint: disable=CODE')",
                file=sys.stderr,
            )
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
