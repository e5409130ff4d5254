"""Calibration checks on the paper's transcribed constants."""

import pytest

from repro.analysis import paper
from repro.workloads import get_profile


class TestPaperConstants:
    def test_profiles_encode_table5(self):
        """The workload calibration must match the transcribed Table V."""
        for app, (access_pct, miss_pct) in paper.TABLE5_CONTENT_SHARES_PCT.items():
            profile = get_profile(app)
            assert profile.content_access_fraction * 100 == pytest.approx(
                access_pct, abs=0.01
            ), app
            assert profile.content_miss_share * 100 == pytest.approx(
                miss_pct, abs=0.01
            ), app

    def test_table4_average(self):
        values = paper.TABLE4_TRAFFIC_REDUCTION_PCT.values()
        assert sum(values) / len(paper.TABLE4_TRAFFIC_REDUCTION_PCT) == pytest.approx(
            paper.TABLE4_AVERAGE_PCT, abs=0.05
        )

    def test_table1_has_all_parsec_apps(self):
        from repro.workloads import PARSEC_APPS

        assert set(paper.TABLE1_RELOCATION_MS) == set(PARSEC_APPS)

    def test_table6_holders_consistent(self):
        # The paper's own canneal row sums to 101.0 (rounding); allow it.
        for app, holders in paper.TABLE6_HOLDERS_PCT.items():
            assert holders["cache_all"] + holders["memory"] == pytest.approx(
                100.0, abs=1.1
            ), app

