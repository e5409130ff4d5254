"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, prints
it, and asserts the shape claims the paper makes. Benchmarks run once
(``rounds=1``) — they measure full experiment campaigns, not
microseconds. Simulator speed is measured by ``bench/run.py``, not here.
"""

import sys
from pathlib import Path

# Make the sibling `_shared` module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))


def emit(text: str) -> None:
    """Print a regenerated table/figure so `pytest -s` shows it."""
    print()
    print(text)
