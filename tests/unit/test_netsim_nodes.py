"""Unit tests for the switch, NF-server and traffic-generator nodes."""

from dataclasses import replace

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.netsim.eventloop import EventLoop, FastEventLoop
from repro.netsim.link import Link
from repro.netsim.nic import NIC_10GE
from repro.netsim.node import Node
from repro.netsim.server_node import NfServerNode
from repro.netsim.switch_node import SwitchNode
from repro.netsim.topology import Topology
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.nf.chain import NfChain
from repro.nf.firewall import Firewall, FirewallRule
from repro.nf.framework import NfFramework
from repro.nf.macswap import MacSwapper
from repro.nf.server import NfServerConfig, NfServerModel
from repro.packet.packet import Packet
from repro.traffic.pktgen import PktGenConfig
from repro.traffic.workload import Workload


class _Collector(Node):
    def __init__(self, env, name="collector"):
        super().__init__(env, name)
        self.received = []

    def handle_packet(self, packet, port):
        self.received.append(packet)


def _binding():
    return NfServerBinding(name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0)


class TestSwitchNode:
    def _wired_switch(self, program):
        env = EventLoop()
        switch = SwitchNode(env, program)
        gen = _Collector(env, "gen")
        server = _Collector(env, "server")
        Link(env, gen, 0, switch, 0, bandwidth_gbps=100.0)
        Link(env, gen, 1, switch, 1, bandwidth_gbps=100.0)
        Link(env, server, 0, switch, 2, bandwidth_gbps=100.0)
        return env, switch, gen, server

    def test_forwards_after_base_latency(self):
        env, switch, gen, server = self._wired_switch(BaselineProgram([_binding()]))
        switch.handle_packet(Packet.udp(total_size=200), port=0)
        env.run_until(10_000_000)
        assert len(server.received) == 1
        assert switch.packets_out == 1

    def test_counts_dataplane_drops(self):
        program = PayloadParkProgram(PayloadParkConfig(), bindings=[_binding()])
        env, switch, gen, server = self._wired_switch(program)
        packet = Packet.udp(total_size=500)
        switch.handle_packet(packet, port=0)
        packet.pp.clk ^= 1  # corrupt the tag
        switch.handle_packet(packet, port=2)
        assert switch.packets_dropped == 1
        assert "payloadpark-tag-corrupt" in switch.drop_reasons

    def test_stats_snapshot_keys(self):
        env, switch, gen, server = self._wired_switch(BaselineProgram([_binding()]))
        stats = switch.stats()
        assert {"packets_in", "packets_out", "packets_dropped"} <= set(stats)

    @pytest.mark.parametrize("loop_cls", [EventLoop, FastEventLoop])
    def test_egress_to_an_unwired_port_raises_at_send_time(self, loop_cls):
        # The egress decision (NF port 2) is made at pipeline time, but
        # the missing link is only an error once the frame is sent, one
        # forwarding latency later — for every frame, not just the first
        # one to use the port.
        env = loop_cls()
        switch = SwitchNode(env, BaselineProgram([_binding()]))
        Link(env, _Collector(env, "gen"), 0, switch, 0, bandwidth_gbps=100.0)
        for _ in range(2):
            sent_at = env.now
            switch.handle_packet(Packet.udp(total_size=200), port=0)
            assert env.pending_events == 1
            with pytest.raises(ValueError, match="switch: no link attached to port 2"):
                env.run_until(sent_at + 10_000)
            assert env.now == sent_at + SwitchNode.BASE_LATENCY_NS
            assert env.pending_events == 0
        assert switch.packets_out == 2

    def test_egress_sender_finds_a_link_wired_after_its_first_use(self):
        # The per-port sender resolves the link per frame: a port that
        # raised while unwired forwards once its link is attached.
        env = FastEventLoop()
        switch = SwitchNode(env, BaselineProgram([_binding()]))
        Link(env, _Collector(env, "gen"), 0, switch, 0, bandwidth_gbps=100.0)
        switch.handle_packet(Packet.udp(total_size=200), port=0)
        with pytest.raises(ValueError, match="no link attached to port 2"):
            env.run_until(10_000)
        server = _Collector(env, "server")
        Link(env, server, 0, switch, 2, bandwidth_gbps=100.0)
        switch.handle_packet(Packet.udp(total_size=200), port=0)
        env.run_until(1_000_000)
        assert len(server.received) == 1

    def test_negative_forwarding_latency_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="base_latency_ns must be non-negative"):
            SwitchNode(EventLoop(), BaselineProgram([_binding()]), base_latency_ns=-1)


class TestNfServerNode:
    def _server(self, chain=None, jitter=0.0, explicit_drop=False):
        env = EventLoop()
        chain = chain or NfChain([MacSwapper()])
        model = NfServerModel(
            chain,
            NfServerConfig(service_jitter=jitter, explicit_drop=explicit_drop),
        )
        server = NfServerNode(env, model, nic_spec=NIC_10GE)
        sink = _Collector(env, "switch-side")
        Link(env, server, 0, sink, 0, bandwidth_gbps=100.0)
        return env, server, sink

    def test_packet_round_trips_through_chain(self):
        env, server, sink = self._server()
        packet = Packet.udp(total_size=300)
        src_before = packet.eth.src
        server.handle_packet(packet, port=0)
        env.run_until(1_000_000)
        assert len(sink.received) == 1
        assert sink.received[0].eth.dst == src_before  # MAC swapped
        assert server.processed_packets == 1
        assert server.forwarded_packets == 1

    def test_pcie_bytes_accounted_both_directions(self):
        env, server, sink = self._server()
        server.handle_packet(Packet.udp(total_size=300), port=0)
        env.run_until(1_000_000)
        assert server.pcie_rx_bytes > 300
        assert server.pcie_tx_bytes > 300

    def test_chain_drop_without_explicit_drop_vanishes(self):
        chain = NfChain([Firewall(rules=[FirewallRule.blacklist("10.1.0.0/16")])])
        env, server, sink = self._server(chain=chain)
        server.handle_packet(Packet.udp(src_ip="10.1.0.5", total_size=300), port=0)
        env.run_until(1_000_000)
        assert server.chain_dropped_packets == 1
        assert sink.received == []

    def test_chain_drop_with_explicit_drop_sends_notification(self):
        from repro.core.header import OP_EXPLICIT_DROP, PayloadParkHeader

        chain = NfChain([Firewall(rules=[FirewallRule.blacklist("10.1.0.0/16")])])
        env, server, sink = self._server(chain=chain, explicit_drop=True)
        packet = Packet.udp(src_ip="10.1.0.5", total_size=300)
        packet.pp = PayloadParkHeader(enb=1, tbl_idx=1, clk=1).seal()
        packet.park_leading_payload(160)
        server.handle_packet(packet, port=0)
        env.run_until(1_000_000)
        assert server.explicit_drop_notifications == 1
        assert len(sink.received) == 1
        assert sink.received[0].pp.op == OP_EXPLICIT_DROP
        assert sink.received[0].payload_length == 0

    def test_nic_tx_on_an_unwired_port_raises_at_send_time(self):
        # The NIC-tx event is the switch port's sender, built before any
        # link exists; the missing link is an error when the frame
        # leaves the NIC, not when it arrives or completes.
        env = EventLoop()
        server = NfServerNode(
            env, NfServerModel(NfChain([MacSwapper()]), NfServerConfig(service_jitter=0.0))
        )
        server.handle_packet(Packet.udp(total_size=300), port=0)
        with pytest.raises(ValueError, match="nf-server: no link attached to port 0"):
            env.run_until(1_000_000)
        assert server.forwarded_packets == 1
        assert env.pending_events == 0

    def test_buffer_overflow_drops(self):
        env, server, sink = self._server()
        server._buffer_capacity = 2
        for _ in range(5):
            server.handle_packet(Packet.udp(total_size=300), port=0)
        assert server.overflow_drops == 3

    def test_buffer_holds_the_nic_rx_ring_plus_one_framework_ring_per_nf(self):
        nic = replace(NIC_10GE, rx_ring_entries=4)
        config = NfServerConfig(framework=NfFramework("tiny", ring_entries=3), service_jitter=0.0)
        model = NfServerModel(NfChain([MacSwapper(), MacSwapper()]), config)
        server = NfServerNode(EventLoop(), model, nic_spec=nic)
        for _ in range(12):
            server.handle_packet(Packet.udp(total_size=300), port=0)
        assert server.queue_occupancy == 4 + 3 * 2
        assert server.overflow_drops == 12 - (4 + 3 * 2)

    def test_queue_occupancy_drains(self):
        env, server, sink = self._server()
        for _ in range(3):
            server.handle_packet(Packet.udp(total_size=300), port=0)
        assert server.queue_occupancy == 3
        env.run_until(10_000_000)
        assert server.queue_occupancy == 0


class TestTrafficGenNode:
    def _pktgen(self, rate_gbps=10.0, size=512):
        env = EventLoop()
        config = PktGenConfig(rate_gbps=rate_gbps, workload=Workload.fixed_size(size), seed=5)
        gen = TrafficGenNode(env, config, tx_ports=[0, 1])
        sink_a, sink_b = _Collector(env, "a"), _Collector(env, "b")
        Link(env, gen, 0, sink_a, 0, bandwidth_gbps=100.0)
        Link(env, gen, 1, sink_b, 0, bandwidth_gbps=100.0)
        return env, gen, sink_a, sink_b

    def test_offered_rate_close_to_configured(self):
        env, gen, sink_a, sink_b = self._pktgen(rate_gbps=8.0)
        gen.start(duration_ns=1_000_000)
        env.run_until(1_000_000)
        offered_gbps = gen.bytes_sent * 8 / 1_000_000
        assert offered_gbps == pytest.approx(8.0, rel=0.1)

    def test_traffic_striped_across_ports(self):
        env, gen, sink_a, sink_b = self._pktgen()
        gen.start(duration_ns=200_000)
        env.run_until(300_000)
        assert abs(len(sink_a.received) - len(sink_b.received)) <= 1

    def test_sink_records_latency(self):
        env, gen, sink_a, sink_b = self._pktgen()
        packet = Packet.udp(total_size=200)
        packet.meta["tx_ns"] = 0
        env.run_until(0)
        gen.handle_packet(packet, port=0)
        assert gen.packets_received == 1
        assert gen.latency.count == 1

    def test_stop_halts_generation(self):
        env, gen, sink_a, sink_b = self._pktgen()
        gen.start(duration_ns=10_000_000)
        env.run_until(50_000)
        sent_before = gen.packets_sent
        gen.stop()
        env.run_until(200_000)
        assert gen.packets_sent <= sent_before + gen.config.burst_size

    def test_requires_tx_ports(self):
        env = EventLoop()
        config = PktGenConfig(rate_gbps=1.0, workload=Workload.fixed_size(256))
        with pytest.raises(ValueError):
            TrafficGenNode(env, config, tx_ports=[])


class TestTopology:
    def test_topology_wires_everything(self):
        env = EventLoop()
        program = BaselineProgram([_binding()])
        model = NfServerModel(NfChain([MacSwapper()]), NfServerConfig(service_jitter=0.0))
        config = PktGenConfig(rate_gbps=5.0, workload=Workload.fixed_size(512))
        topology = Topology(env, program, [model], [config], nic_spec=NIC_10GE)
        topology.start_traffic(duration_ns=100_000)
        topology.run_until(500_000)
        (attachment,) = topology.attachments
        assert attachment.pktgen.packets_sent > 0
        assert attachment.server.processed_packets > 0
        assert attachment.pktgen.packets_received > 0
        snapshot = topology.snapshot()
        assert "switch" in snapshot and "links.srv0" in snapshot

    def test_topology_wants_one_model_and_one_config_per_binding(self):
        env = EventLoop()
        bindings = [_binding(), NfServerBinding("b", (4, 5), 6, 4)]
        program = BaselineProgram(bindings)
        model = NfServerModel(NfChain([MacSwapper()]), NfServerConfig())
        config = PktGenConfig(rate_gbps=5.0, workload=Workload.fixed_size(512))
        with pytest.raises(ValueError):
            Topology(env, program, [model], [config])
