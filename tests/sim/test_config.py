"""Tests for the simulation configuration (Table II)."""

import pytest

from repro.coherence.registry import MAX_CORES
from repro.core.filter import ContentPolicy, SnoopPolicy
from repro.sim.config import SimConfig


class TestTable2Defaults:
    """The defaults must encode the paper's Table II exactly."""

    def test_processors(self):
        config = SimConfig()
        assert config.num_cores == 16
        assert config.mesh_width == 4 and config.mesh_height == 4

    def test_l1(self):
        config = SimConfig()
        assert config.l1_size == 32 * 1024
        assert config.l1_ways == 4
        assert config.block_size == 64
        assert config.l1_latency == 2

    def test_l2(self):
        config = SimConfig()
        assert config.l2_size == 256 * 1024
        assert config.l2_ways == 8
        assert config.l2_latency == 10

    def test_network(self):
        config = SimConfig()
        assert config.link_bytes == 16
        assert config.router_latency == 4

    def test_vm_setup(self):
        config = SimConfig()
        assert config.num_vms == 4
        assert config.vcpus_per_vm == 4

    def test_section5_semantics(self):
        config = SimConfig()
        assert not config.hypervisor_activity_enabled
        assert not config.content_sharing_enabled


class TestValidation:
    def test_mesh_mismatch(self):
        with pytest.raises(ValueError):
            SimConfig(num_cores=12)

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SimConfig(topology="ring")

    def test_torus_checks_grid(self):
        SimConfig(topology="torus")  # 16 == 4x4, fine
        with pytest.raises(ValueError):
            SimConfig(topology="torus", num_cores=12)

    def test_grid_topologies_reject_multiple_sockets(self):
        with pytest.raises(ValueError, match="single-socket"):
            SimConfig(num_sockets=2)

    def test_hierarchical_core_count(self):
        config = SimConfig(
            topology="hierarchical", num_cores=32, num_sockets=2,
            num_vms=8,
        )
        assert config.num_cores == 32
        with pytest.raises(ValueError):
            SimConfig(topology="hierarchical", num_cores=16, num_sockets=2)

    def test_hierarchical_needs_two_sockets(self):
        with pytest.raises(ValueError, match=">= 2 sockets"):
            SimConfig(topology="hierarchical", num_sockets=1)

    def test_hierarchical_hop_cost_positive(self):
        with pytest.raises(ValueError, match="inter_socket_hop_cost"):
            SimConfig(
                topology="hierarchical", num_cores=32, num_sockets=2,
                num_vms=8, inter_socket_hop_cost=0,
            )

    def test_overcommit_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_vms=5, vcpus_per_vm=4)

    def test_core_count_within_registry_owner_field(self):
        with pytest.raises(ValueError, match="owner field"):
            SimConfig(num_cores=MAX_CORES + 1, mesh_width=MAX_CORES + 1, mesh_height=1)

    def test_bad_migration_period(self):
        with pytest.raises(ValueError):
            SimConfig(migration_period_ms=0)

    @pytest.mark.parametrize(
        "budget", ["accesses_per_vcpu", "warmup_accesses_per_vcpu"]
    )
    def test_negative_budget(self, budget):
        with pytest.raises(ValueError, match=budget):
            SimConfig(**{budget: -5})

    def test_migration_period_cycles(self):
        config = SimConfig(migration_period_ms=2.5, cycles_per_ms=100_000)
        assert config.migration_period_cycles == 250_000
        assert SimConfig().migration_period_cycles is None


class TestDerivedConfigs:
    def test_with_policy(self):
        config = SimConfig().with_policy(SnoopPolicy.VSNOOP_COUNTER)
        assert config.snoop_policy is SnoopPolicy.VSNOOP_COUNTER
        both = SimConfig().with_policy(
            SnoopPolicy.VSNOOP_BASE, ContentPolicy.MEMORY_DIRECT
        )
        assert both.content_policy is ContentPolicy.MEMORY_DIRECT

    def test_real_time(self):
        assert SimConfig().real_time(2.0).cycles_per_ms == 2_000_000

    def test_migration_study_preset(self):
        config = SimConfig.migration_study(migration_period_ms=5.0)
        assert config.l2_size < SimConfig().l2_size
        assert config.working_set_scale < 1.0
        assert config.migration_period_ms == 5.0
