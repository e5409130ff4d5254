"""Smoke + shape tests for the experiment drivers (reduced sizes)."""

import json

import pytest

from repro.core.filter import SnoopPolicy
from repro.experiments import (
    consolidation,
    content_study,
    ext_clustered,
    fig01_l2_decomposition,
    fig02_potential,
    migration_study,
    pinned_study,
    sched_study,
)
from repro.sim import CampaignInterrupted
from repro.sim.runner import CAMPAIGN_ENV_VAR, JOBS_ENV_VAR


@pytest.fixture(autouse=True)
def fast(monkeypatch):
    monkeypatch.setenv("REPRO_FAST", "1")


class TestFig1:
    def test_shares_sum_to_100(self):
        results = fig01_l2_decomposition.run(["dedup"])
        row = results["dedup"]
        assert row["guest"] + row["dom0"] + row["xen"] == pytest.approx(100.0)
        assert row["dom0"] + row["xen"] < 50.0

    def test_format(self):
        out = fig01_l2_decomposition.format_result(
            {"dedup": {"guest": 90.0, "dom0": 7.0, "xen": 3.0}}
        )
        assert "dedup" in out and "Figure 1" in out


class TestFig2:
    def test_paper_values(self):
        series = fig02_potential.run()
        assert series[0.0][-1] == pytest.approx(93.75)
        assert series[0.05][-1] == pytest.approx(89.0625)

    def test_format_contains_ideal(self):
        assert "ideal" in fig02_potential.format_result(fig02_potential.run())


class TestSchedStudy:
    def test_shapes(self):
        results = sched_study.run(["dedup"])
        row = results["dedup"]
        # Overcommitted: migration wins; relocation faster than 100ms.
        assert row["over"]["pinned_norm_pct"] > 100.0
        assert row["over"]["relocation_period_ms"] < 100.0

    def test_formatters(self):
        results = sched_study.run(["dedup"])
        assert "Figure 3" in sched_study.format_figure3(results)
        assert "Table I" in sched_study.format_table1(results)

    def test_interrupted_campaign_resumes_to_the_uninterrupted_result(
        self, tmp_path, monkeypatch
    ):
        uninterrupted = sched_study.run(["dedup"])
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        monkeypatch.setenv(CAMPAIGN_ENV_VAR, str(tmp_path))
        run_task = sched_study.run_task
        calls = []

        def interrupt_third_cell(task):
            calls.append(task)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run_task(task)

        monkeypatch.setattr(sched_study, "run_task", interrupt_third_cell)
        with pytest.raises(CampaignInterrupted):
            sched_study.run(["dedup"])
        monkeypatch.setattr(sched_study, "run_task", run_task)
        assert sched_study.run(["dedup"]) == uninterrupted

        manifest = json.loads((tmp_path / "manifest-fig3_tab1.json").read_text())
        assert manifest["totals"]["from_checkpoint"] == 2
        entries = manifest["tasks"]
        assert [e["policy"] for e in entries] == ["pinned", "credit"] * 2
        assert [e["num_vms"] for e in entries] == [2, 2, 4, 4]
        assert [e["seed"] for e in entries] == [7] * 4
        assert all(e["ok"] and e["wall_seconds"] >= 0 for e in entries)


class TestPinnedStudy:
    def test_traffic_and_snoop_reduction(self):
        results = pinned_study.run(["fft"])
        row = results["fft"]
        assert 40.0 < row["traffic_reduction_pct"] < 80.0
        assert row["snoop_reduction_pct"] == pytest.approx(75.0, abs=5.0)

    def test_formatters(self):
        results = pinned_study.run(["fft"])
        assert "Table IV" in pinned_study.format_table4(results)
        assert "Figure 6" in pinned_study.format_figure6(results)


class TestMigrationStudy:
    def test_counter_beats_base_at_fast_migration(self):
        results = migration_study.run(
            apps=["fft"],
            periods_ms=(0.1,),
        )
        row = results["fft"][0.1]
        assert (
            row[SnoopPolicy.VSNOOP_COUNTER.value]["snoops_norm_pct"]
            < row[SnoopPolicy.VSNOOP_BASE.value]["snoops_norm_pct"]
        )

    def test_removal_cdf_structure(self):
        results = migration_study.run(apps=["fft"], periods_ms=(0.5,))
        cdf = migration_study.removal_cdf(results, period_ms=0.5)
        assert "fft" in cdf
        assert cdf["fft"] == sorted(cdf["fft"])
        out = migration_study.format_figure9(cdf)
        assert "Figure 9" in out


class TestExtClustered:
    def test_clustered_bounds_domain(self):
        results = ext_clustered.run(["dedup"])
        row = results["dedup"]
        assert row["clustered"]["domain_bound_cores"] < row["credit"]["domain_bound_cores"]
        assert row["clustered"]["wall_ms"] <= row["pinned"]["wall_ms"] * 1.05
        assert "clustered" in ext_clustered.format_result(results)


class TestConsolidation:
    def test_filtered_fraction_rises_with_host_size(self):
        results = consolidation.run(
            apps=["fft"], hosts=[16, 64], accesses=1000, warmup=400,
        )
        by_host = results["fft"]
        for policy in (SnoopPolicy.VSNOOP_BASE, SnoopPolicy.VSNOOP_COUNTER):
            small = by_host[16][policy.value]
            large = by_host[64][policy.value]
            # Maps stay ~VM-sized while the host quadruples, so the
            # filtered fraction climbs (0.75 -> ~0.94).
            assert large["filtered_snoop_fraction"] > small["filtered_snoop_fraction"]
            assert small["snoop_map_avg_size"] <= 8.0
            assert large["snoop_map_avg_size"] <= 8.0
        # Broadcast filters nothing at any scale.
        assert by_host[16]["broadcast"]["filtered_snoop_fraction"] == 0.0
        assert by_host[64]["broadcast"]["filtered_snoop_fraction"] == 0.0
        # ... and its per-transaction traffic grows superlinearly.
        assert (
            by_host[64]["broadcast"]["traffic_bytes_per_transaction"]
            > 2 * by_host[16]["broadcast"]["traffic_bytes_per_transaction"]
        )

    def test_smoke_mode_shrinks_sweep(self, monkeypatch):
        monkeypatch.setenv("CONSOLIDATION_SMOKE", "1")
        assert consolidation.smoke_mode()
        config = consolidation.consolidation_config(
            64, SnoopPolicy.VSNOOP_COUNTER
        )
        assert config.sanitize
        assert config.accesses_per_vcpu == 1_500
        results = consolidation.run(apps=["fft"], policies=(SnoopPolicy.VSNOOP_BASE,))
        assert set(results["fft"]) == {64}

    def test_format_scaling_table(self):
        results = consolidation.run(
            apps=["fft"], hosts=[16], accesses=600, warmup=200,
        )
        out = consolidation.format_scaling(results)
        assert "Consolidation scaling" in out
        assert "filtered" in out and "16" in out


class TestContentStudy:
    def test_table5_shape(self):
        sharing = content_study.run_sharing_stats(["fft"])
        row = sharing["fft"]
        assert row["l2_miss_pct"] > row["l1_access_pct"]
        holders = (
            row["holder_cache_pct"] + row["holder_memory_pct"]
        )
        assert holders == pytest.approx(100.0, abs=0.5)

    def test_fig10_ordering(self):
        comparison = content_study.run_policy_comparison(["fft"])
        row = comparison["fft"]
        assert row["memory-direct"] < row["intra-vm"] <= row["friend-vm"]
        assert row["friend-vm"] < row["vsnoop-broadcast"]

    def test_formatters(self):
        sharing = content_study.run_sharing_stats(["fft"])
        assert "Table V" in content_study.format_table5(sharing)
        assert "Table VI" in content_study.format_table6(sharing)
