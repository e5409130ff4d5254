"""Golden-run regression suite: byte-exact stats for every frozen config.

Every case in :mod:`tests.golden.cases` is simulated and its
``SimStats.to_dict()`` JSON compared **byte for byte** against the
checked-in file under ``tests/golden/data/``. Any change to the
simulator's numeric behaviour — however small — shows up here as a
unified-looking JSON diff instead of a silent drift.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
    git diff tests/golden/data/   # eyeball every changed number
"""

import json
from pathlib import Path

import pytest

from repro.sim.runner import run_simulation_task

from .cases import GOLDEN_CASES

DATA_DIR = Path(__file__).parent / "data"


def encode(stats) -> str:
    """The canonical on-disk form: sorted keys, indented, newline-final."""
    return json.dumps(stats.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_run(name, request):
    stats = run_simulation_task(GOLDEN_CASES[name])
    encoded = encode(stats)
    path = DATA_DIR / f"{name}.json"

    if request.config.getoption("--update-golden"):
        DATA_DIR.mkdir(exist_ok=True)
        path.write_text(encoded)
        pytest.skip(f"regenerated {path.name}")

    assert path.exists(), (
        f"missing golden file {path}; generate the corpus with "
        f"`pytest tests/golden --update-golden`"
    )
    assert encoded == path.read_text(), (
        f"simulator output drifted from golden run {name!r}; if the "
        f"change is intentional, rerun with --update-golden and commit "
        f"the data diff"
    )


def test_golden_corpus_has_no_strays():
    # A data file without a case is dead weight that would mask a rename.
    expected = {f"{name}.json" for name in GOLDEN_CASES}
    actual = {p.name for p in DATA_DIR.glob("*.json")}
    assert actual == expected


def test_cases_exercise_interesting_behaviour():
    # The corpus only locks down what it actually exercises: make sure
    # the migration-heavy case really migrates and shrinks maps.
    stats = run_simulation_task(GOLDEN_CASES["migration-heavy-ocean"])
    assert stats.migrations > 0
    assert stats.removal_periods_cycles
