"""Suite-wide pytest hooks.

``--update-golden`` rewrites the golden-run corpus under
``tests/golden/data/`` and the state-version fingerprints in
``tests/store/state_fingerprints.json`` from the current code instead of
comparing against them. Use it after an *intentional* change, eyeball
the diff of the regenerated JSON, and commit the data files with the
code change that caused them (see CHANGES.md conventions).
"""

import os
import tempfile

import pytest
from hypothesis import settings

# CI's kernel-differential job runs the kernel property test deeper:
# ``pytest --hypothesis-profile=kernel-differential``. Only tests that
# read this profile's example count change (see tests/sim/test_kernel.py).
settings.register_profile("kernel-differential", max_examples=200)


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store():
    """Point REPRO_STORE at a per-session temp dir for the whole suite.

    The store defaults to ``~/.cache/repro``; tests must neither read a
    developer's real store (stale entries would mask regressions the
    suite exists to catch) nor pollute it with the suite's toy cells.
    Individual tests still repoint or disable it via monkeypatch.
    """
    previous = os.environ.get("REPRO_STORE")
    with tempfile.TemporaryDirectory(prefix="repro-store-") as tmp:
        os.environ["REPRO_STORE"] = tmp
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop("REPRO_STORE", None)
            else:
                os.environ["REPRO_STORE"] = previous


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "regenerate tests/golden/data/*.json and "
            "tests/store/state_fingerprints.json instead of asserting"
        ),
    )
