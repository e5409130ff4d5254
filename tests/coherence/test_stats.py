"""Tests for protocol statistics."""

from repro.coherence.stats import CoherenceStats
from repro.mem.pagetype import PageType


class TestRecording:
    def test_transaction_classification(self):
        stats = CoherenceStats()
        stats.record_transaction(PageType.VM_PRIVATE, is_write=False)
        stats.record_transaction(PageType.RO_SHARED, is_write=True)
        assert stats.transactions == 2
        assert stats.gets_count == 1
        assert stats.getm_count == 1
        assert stats.transactions_by_page_type[PageType.RO_SHARED] == 1

    def test_snoop_recording(self):
        stats = CoherenceStats()
        stats.record_snoops(16, PageType.RW_SHARED)
        stats.record_snoops(4, PageType.VM_PRIVATE)
        assert stats.snoops == 20
        assert stats.snoops_by_page_type[PageType.RW_SHARED] == 16


class TestReset:
    def test_reset_zeroes_in_place_and_keeps_key_order(self):
        stats = CoherenceStats()
        by_page_type = stats.transactions_by_page_type
        stats.record_transaction(PageType.RO_SHARED, is_write=True)
        stats.record_snoops(16, PageType.RW_SHARED)
        stats.retries = 2
        stats.ro_holder_friend_vm = 1
        stats.reset()
        assert stats == CoherenceStats()
        assert stats.transactions_by_page_type is by_page_type
        assert list(by_page_type) == list(PageType)
        assert stats.to_dict() == CoherenceStats().to_dict()
