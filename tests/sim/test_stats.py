"""Tests for simulation-level statistics."""

import dataclasses
import json

import pytest

from repro.coherence.stats import CoherenceStats
from repro.mem.pagetype import PageType
from repro.sim.stats import SimStats
from repro.workloads.trace import Initiator


class TestDerivedMetrics:
    def test_empty_stats_are_zero(self):
        stats = SimStats()
        assert stats.miss_rate() == 0.0
        assert stats.snoops_per_transaction() == 0.0
        assert stats.l1_access_share(PageType.RO_SHARED) == 0.0
        assert stats.l2_miss_share(PageType.RO_SHARED) == 0.0

    def test_miss_decomposition(self):
        stats = SimStats()
        stats.transactions_by_initiator[Initiator.GUEST] = 80
        stats.transactions_by_initiator[Initiator.DOM0] = 15
        stats.transactions_by_initiator[Initiator.HYPERVISOR] = 5
        shares = stats.miss_decomposition_by_initiator()
        assert shares[Initiator.GUEST] == pytest.approx(0.80)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_l1_access_share(self):
        stats = SimStats()
        stats.l1_accesses = 200
        stats.l1_accesses_by_page_type[PageType.RO_SHARED] = 50
        assert stats.l1_access_share(PageType.RO_SHARED) == pytest.approx(0.25)

    def test_l2_miss_share_uses_transactions(self):
        stats = SimStats()
        stats.coherence.record_transaction(PageType.RO_SHARED, is_write=False)
        stats.coherence.record_transaction(PageType.VM_PRIVATE, is_write=False)
        assert stats.l2_miss_share(PageType.RO_SHARED) == pytest.approx(0.5)

    def test_snoops_per_transaction(self):
        stats = SimStats()
        stats.coherence.record_transaction(PageType.VM_PRIVATE, is_write=False)
        stats.coherence.record_snoops(4, PageType.VM_PRIVATE)
        assert stats.snoops_per_transaction() == pytest.approx(4.0)

    def test_miss_rate(self):
        stats = SimStats()
        stats.l1_accesses = 100
        stats.coherence.record_transaction(PageType.VM_PRIVATE, is_write=False)
        assert stats.miss_rate() == pytest.approx(0.01)


class TestReset:
    def test_reset_zeroes_every_field_in_place(self):
        from repro.obs.series import MetricsSeries
        from repro.sanitizer.violation import SanitizerCheck

        stats = SimStats()
        held = {
            f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), (CoherenceStats, dict, list))
        }
        stats.coherence.record_transaction(PageType.RO_SHARED, is_write=True)
        stats.l1_accesses = 7
        stats.l1_accesses_by_page_type[PageType.RO_SHARED] = 3
        stats.transactions_by_initiator[Initiator.DOM0] = 2
        stats.cow_events = stats.migrations = stats.flush_writebacks = 1
        stats.execution_cycles = stats.network_bytes = 9
        stats.network_messages = 9
        stats.removal_periods_cycles.append(5)
        stats.removal_periods_dropped = 1
        stats.metrics = MetricsSeries(sample_every=10)
        stats.sanitizer_violations[SanitizerCheck.STATE] = 1
        stats.snoop_map_sizes[1] = 4
        fresh = SimStats()
        assert all(
            getattr(stats, f.name) != getattr(fresh, f.name)
            for f in dataclasses.fields(stats)
        ), "every field must leave its default before the reset"

        stats.reset()

        assert stats == fresh
        # Key order included: to_dict follows it.
        assert json.dumps(stats.to_dict()) == json.dumps(fresh.to_dict())
        for name, value in held.items():
            assert getattr(stats, name) is value, name


class TestSerialization:
    """The JSON round trip campaign checkpoints rely on must be lossless."""

    def test_empty_stats_round_trip(self):
        stats = SimStats()
        assert SimStats.from_dict(stats.to_dict()) == stats

    def test_real_simulation_round_trip(self):
        # Stats produced by an actual run: enum-keyed dicts populated,
        # nested CoherenceStats counters, removal-period lists included.
        from repro.core.filter import SnoopPolicy
        from repro.sim import SimConfig, SimTask, run_simulation_task

        task = SimTask(
            SimConfig.migration_study(
                snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
                migration_period_ms=0.05,
                accesses_per_vcpu=8_000,
                warmup_accesses_per_vcpu=500,
            ),
            "fft",
        )
        stats = run_simulation_task(task)
        assert stats.removal_periods_cycles, "fixture must exercise removals"
        assert stats.migrations > 0
        restored = SimStats.from_dict(stats.to_dict())
        assert restored == stats
        for field in dataclasses.fields(stats):
            assert getattr(restored, field.name) == getattr(stats, field.name), field.name

    def test_round_trip_survives_json(self):
        stats = SimStats()
        stats.l1_accesses = 7
        stats.l1_accesses_by_page_type[PageType.RO_SHARED] = 3
        stats.transactions_by_initiator[Initiator.DOM0] = 2
        stats.removal_periods_cycles = [10, 20, 30]
        stats.coherence.record_transaction(PageType.RW_SHARED, is_write=True)
        stats.coherence.record_snoops(5, PageType.RW_SHARED)
        encoded = json.dumps(stats.to_dict(), sort_keys=True)
        assert SimStats.from_dict(json.loads(encoded)) == stats

    def test_snoop_map_sizes_round_trip_through_json(self):
        stats = SimStats()
        stats.snoop_map_sizes = {1: 4, 2: 7, 10: 16}
        encoded = json.dumps(stats.to_dict(), sort_keys=True)
        decoded = SimStats.from_dict(json.loads(encoded))
        # JSON stringifies the int VM ids; from_dict must undo that.
        assert decoded.snoop_map_sizes == {1: 4, 2: 7, 10: 16}
        assert decoded == stats
        # Omitted while empty so older artifacts stay loadable/identical.
        assert "snoop_map_sizes" not in SimStats().to_dict()

    def test_to_dict_covers_every_field(self):
        data = SimStats().to_dict()
        # sanitizer_violations, metrics and removal_periods_dropped are
        # deliberately omitted while empty so artifacts from runs without
        # those features stay bit-identical to earlier releases.
        expected = {f.name for f in dataclasses.fields(SimStats)}
        expected.discard("sanitizer_violations")
        expected.discard("metrics")
        expected.discard("removal_periods_dropped")
        expected.discard("snoop_map_sizes")
        assert set(data) == expected
        coherence = data["coherence"]
        assert set(coherence) == {f.name for f in dataclasses.fields(CoherenceStats)}

    def test_sanitizer_violations_serialized_when_present(self):
        from repro.sanitizer import SanitizerCheck

        stats = SimStats()
        stats.sanitizer_violations[SanitizerCheck.STATE] = 3
        data = stats.to_dict()
        assert data["sanitizer_violations"] == {"coherence-state": 3}
        assert SimStats.from_dict(data) == stats

    def test_capped_removal_log_round_trips(self):
        # A soak run that overflowed the bounded removal log records how
        # many periods were dropped; the round trip stays lossless for
        # what was kept.
        stats = SimStats()
        stats.removal_periods_cycles = [100, 250]
        stats.removal_periods_dropped = 4_321
        data = stats.to_dict()
        assert data["removal_periods_dropped"] == 4_321
        restored = SimStats.from_dict(json.loads(json.dumps(data, sort_keys=True)))
        assert restored == stats

    def test_soak_run_with_tiny_cap_reports_dropped_periods(self):
        # End-to-end: when migration churn overflows the bounded removal
        # log, the run finishes normally and the stats say what was cut.
        from repro.core.filter import SnoopPolicy
        from repro.sim import SimConfig, build_system, run_simulation
        from repro.workloads.profiles import get_profile

        config = SimConfig.migration_study(
            snoop_policy=SnoopPolicy.VSNOOP_COUNTER,
            migration_period_ms=0.05,
            accesses_per_vcpu=6_000,
            warmup_accesses_per_vcpu=500,
        )
        system = build_system(config, get_profile("ocean"))
        system.snoop_filter.domains.max_removal_log = 1
        run_simulation(system)
        stats = system.stats
        assert len(stats.removal_periods_cycles) == 1
        assert stats.removal_periods_dropped > 0
        restored = SimStats.from_dict(
            json.loads(json.dumps(stats.to_dict(), sort_keys=True))
        )
        assert restored == stats

    def test_metrics_series_round_trips_inside_stats(self):
        from repro.obs.series import MetricsSeries, MetricsWindow

        stats = SimStats()
        stats.metrics = MetricsSeries(
            sample_every=10,
            windows=[MetricsWindow(start=0, width=10, transactions=3, snoops=7)],
        )
        restored = SimStats.from_dict(
            json.loads(json.dumps(stats.to_dict(), sort_keys=True))
        )
        assert restored == stats
        assert isinstance(restored.metrics, MetricsSeries)

    def test_unknown_keys_rejected(self):
        data = SimStats().to_dict()
        data["not_a_field"] = 1
        with pytest.raises(ValueError, match="not_a_field"):
            SimStats.from_dict(data)
        coherence = CoherenceStats().to_dict()
        coherence["bogus"] = 2
        with pytest.raises(ValueError, match="bogus"):
            CoherenceStats.from_dict(coherence)

    def test_enum_keys_serialized_by_value(self):
        data = SimStats().to_dict()
        assert set(data["l1_accesses_by_page_type"]) == {t.value for t in PageType}
        assert set(data["transactions_by_initiator"]) == {i.value for i in Initiator}
