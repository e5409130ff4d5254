"""Tests for trace persistence and replay."""

import pytest

from repro.workloads.generator import VmWorkload
from repro.workloads.profiles import get_profile
from repro.workloads.trace import Initiator, MemoryAccess
from repro.workloads.tracefile import (
    TraceFormatError,
    TraceReplayWorkload,
    format_access,
    load_trace,
    parse_access,
    record_workload,
    save_trace,
)


def sample_accesses():
    return [
        MemoryAccess(1, 0, Initiator.GUEST, 100, 5, False),
        MemoryAccess(1, 1, Initiator.DOM0, 200, 63, True),
        MemoryAccess(1, 0, Initiator.HYPERVISOR, 300, 0, False),
    ]


class TestFormat:
    def test_roundtrip_line(self):
        for access in sample_accesses():
            assert parse_access(format_access(access)) == access

    def test_bad_field_count(self):
        with pytest.raises(TraceFormatError):
            parse_access("1 2 g 3")

    def test_bad_initiator(self):
        with pytest.raises(TraceFormatError):
            parse_access("1 0 x 100 5 0")

    def test_bad_number(self):
        with pytest.raises(TraceFormatError):
            parse_access("1 0 g abc 5 0")

    def test_block_range_checked(self):
        with pytest.raises(TraceFormatError):
            parse_access("1 0 g 100 64 0")


class TestFileRoundtrip:
    def test_save_load(self, tmp_path):
        path = tmp_path / "trace.txt"
        accesses = sample_accesses()
        assert save_trace(path, accesses) == 3
        assert load_trace(path) == accesses

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n1 0 g 100 5 0\n")
        assert len(load_trace(path)) == 1

    def test_record_workload_roundtrip(self, tmp_path):
        workload = VmWorkload(get_profile("fft"), 1, 4, seed=3)
        captured = record_workload(workload, accesses_per_vcpu=50)
        assert len(captured) == 200
        path = tmp_path / "fft.trace"
        save_trace(path, captured)
        assert load_trace(path) == captured


class TestReplay:
    def test_replay_preserves_per_vcpu_order(self):
        accesses = sample_accesses()
        replay = TraceReplayWorkload(1, accesses, num_vcpus=2)
        assert replay.next_access(0) == accesses[0]
        assert replay.next_access(0) == accesses[2]
        assert replay.next_access(1) == accesses[1]

    def test_replay_loops(self):
        accesses = sample_accesses()
        replay = TraceReplayWorkload(1, accesses, num_vcpus=2, loop=True)
        first = replay.next_access(1)
        second = replay.next_access(1)
        assert first == second  # single-entry stream wrapped

    def test_replay_no_loop_exhausts(self):
        replay = TraceReplayWorkload(1, sample_accesses(), num_vcpus=2, loop=False)
        replay.next_access(1)
        with pytest.raises(StopIteration, match="vCPU 1 trace exhausted"):
            replay.next_access(1)

    def test_replay_snapshot_restores_stepper_position(self):
        replay = TraceReplayWorkload(1, sample_accesses(), num_vcpus=2)
        step = replay.stepper_for(0)
        saved = replay.snapshot_state()
        first = step()
        replay.restore_state(saved)
        assert step() == first
        assert replay.snapshot_state() == {"kind": "trace", "positions": [1, 0]}

    def test_replay_stepper_on_empty_vcpu_raises(self):
        replay = TraceReplayWorkload(1, sample_accesses(), num_vcpus=3)
        with pytest.raises(StopIteration, match="vCPU 2 has no trace accesses"):
            replay.stepper_for(2)()

    def test_filters_other_vms(self):
        accesses = sample_accesses() + [
            MemoryAccess(2, 0, Initiator.GUEST, 1, 1, False)
        ]
        replay = TraceReplayWorkload(1, accesses, num_vcpus=2)
        assert all(
            a.vm_id == 1
            for stream in replay._streams.values()
            for a in stream
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayWorkload(9, sample_accesses(), num_vcpus=2)

    def test_out_of_range_vcpu_rejected(self):
        with pytest.raises(ValueError):
            TraceReplayWorkload(1, sample_accesses(), num_vcpus=1)

    def test_replay_drives_engine(self, tmp_path):
        """A recorded trace can replace the synthetic generator."""
        from repro.sim import SimConfig, SimulationEngine, build_system
        from repro.workloads import get_profile

        config = SimConfig(accesses_per_vcpu=300, warmup_accesses_per_vcpu=100)
        system = build_system(config, get_profile("fft"))
        recorded = {
            vm_id: record_workload(workload, 500)
            for vm_id, workload in system.workloads.items()
        }
        # Rebuild and swap in replays.
        system = build_system(config, get_profile("fft"))
        system.workloads = {
            vm_id: TraceReplayWorkload(vm_id, accesses, config.vcpus_per_vm)
            for vm_id, accesses in recorded.items()
        }
        SimulationEngine(system).run()
        assert system.stats.total_transactions > 0
