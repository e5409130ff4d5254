"""Tests for latency composition: a request multicast plus one response."""

from repro.interconnect.messages import MessageKind
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology


class TestRoundTrip:
    def setup_method(self):
        self.net = NetworkModel(MeshTopology(4, 4))

    def test_request_plus_response(self):
        latency = self.net.multicast(0, [1, 2, 3], MessageKind.REQUEST)
        latency += self.net.send(3, 0, MessageKind.DATA)
        # Request to farthest (3 hops) + data back from 3 (3 hops).
        assert latency == 3 * 5 + 3 * 5
        assert self.net.messages == 4  # 3 requests + 1 data

    def test_no_responder_charges_requests_only(self):
        latency = self.net.multicast(0, [1, 2], MessageKind.REQUEST)
        assert latency == 2 * 5
        assert self.net.messages == 2

    def test_local_responder_is_free_response(self):
        latency = self.net.multicast(0, [1], MessageKind.REQUEST)
        latency += self.net.send(0, 0, MessageKind.DATA)
        assert latency == 5  # response from self adds nothing
