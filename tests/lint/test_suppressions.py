"""Suppression comments: multi-code lists and mixed tokens.

``# repro-lint: disable=...`` must accept comma-separated lists mixing
codes and rule names, and report unknown tokens (RPL000) without losing
the valid ones.
"""

import textwrap

from repro.lint import lint_source


def codes(source: str):
    return [v.rule.code for v in lint_source(textwrap.dedent(source))]


def test_multi_code_list_suppresses_both_rules_on_one_line():
    source = """
        import random
        import time
        x = random.random() + time.time()  # repro-lint: disable=RPL002,RPL004
    """
    assert codes(source) == []
    # Without the comment both fire (the control for the test above).
    assert codes(source.replace("  # repro-lint: disable=RPL002,RPL004", "")) == [
        "RPL002",
        "RPL004",
    ]


def test_mixed_code_and_name_tokens():
    source = """
        import random
        import time
        x = random.random() + time.time()  # repro-lint: disable=unseeded-random, RPL004
    """
    assert codes(source) == []


def test_partial_list_only_suppresses_listed_codes():
    source = """
        import random
        import time
        x = random.random() + time.time()  # repro-lint: disable=RPL002
    """
    assert codes(source) == ["RPL004"]


def test_unknown_token_reports_rpl000_but_valid_tokens_still_work():
    source = """
        import random
        x = random.random()  # repro-lint: disable=RPL002, RPL999
    """
    assert codes(source) == ["RPL000"]


def test_trailing_reason_after_semicolon_is_allowed():
    source = """
        import time
        t = time.time()  # repro-lint: disable=RPL004; profiling only
    """
    assert codes(source) == []

