"""Unit tests for the discrete-event substrate: event loop, links, NIC, PCIe."""

import pytest

from repro.netsim.eventloop import EventLoop
from repro.netsim.link import Link
from repro.netsim.nic import NIC_10GE, NIC_40GE, NicPort
from repro.netsim.node import Node
from repro.netsim.pcie import PcieBus, PcieSpec
from repro.packet.packet import Packet


class _Sink(Node):
    """A node that records every frame it receives."""

    def __init__(self, env, name="sink"):
        super().__init__(env, name)
        self.received = []

    def handle_packet(self, packet, port):
        self.received.append((self.env.now, port, packet))


class TestEventLoop:
    def test_events_run_in_time_order(self):
        env = EventLoop()
        order = []
        env.schedule_in(50, lambda: order.append("b"))
        env.schedule_in(10, lambda: order.append("a"))
        env.run_until(100)
        assert order == ["a", "b"]
        assert env.now == 100

    def test_ties_preserve_scheduling_order(self):
        env = EventLoop()
        order = []
        env.schedule_at(5, lambda: order.append(1))
        env.schedule_at(5, lambda: order.append(2))
        env.run_until(10)
        assert order == [1, 2]

    def test_cannot_schedule_in_past(self):
        env = EventLoop()
        env.schedule_in(10, lambda: None)
        env.run_until(10)
        with pytest.raises(ValueError):
            env.schedule_at(5, lambda: None)
        with pytest.raises(ValueError):
            env.schedule_in(-1, lambda: None)

    def test_run_until_leaves_future_events_queued(self):
        env = EventLoop()
        env.schedule_in(100, lambda: None)
        env.run_until(50)
        assert env.pending_events == 1
        assert env.now == 50

    def test_run_all_drains_queue(self):
        env = EventLoop()
        hits = []
        for delay in (5, 15, 25):
            env.schedule_in(delay, lambda d=delay: hits.append(d))
        env.run_all()
        assert hits == [5, 15, 25]
        assert env.now == 25


class TestLink:
    def _pair(self, bandwidth_gbps=10.0, buffer_bytes=10_000, propagation_delay_ns=100):
        env = EventLoop()
        a, b = _Sink(env, "a"), _Sink(env, "b")
        link = Link(
            env, a, 0, b, 0,
            bandwidth_gbps=bandwidth_gbps,
            propagation_delay_ns=propagation_delay_ns,
            buffer_bytes=buffer_bytes,
        )
        return env, a, b, link

    def test_delivery_includes_serialization_and_propagation(self):
        env, a, b, link = self._pair()
        packet = Packet.udp(total_size=1000)
        a.send_out(0, packet)
        env.run_until(10_000)
        assert len(b.received) == 1
        arrival, _port, _pkt = b.received[0]
        assert arrival == 1000 * 8 // 10 + 100  # 800 ns serialization + 100 ns propagation

    def test_back_to_back_frames_queue_behind_each_other(self):
        env, a, b, link = self._pair()
        for _ in range(3):
            a.send_out(0, Packet.udp(total_size=1000))
        env.run_until(100_000)
        arrivals = [t for t, _p, _k in b.received]
        assert arrivals == sorted(arrivals)
        assert arrivals[1] - arrivals[0] == pytest.approx(800, abs=2)

    def test_buffer_overflow_drops(self):
        env, a, b, link = self._pair(buffer_bytes=1_500)
        for _ in range(5):
            a.send_out(0, Packet.udp(total_size=1000))
        env.run_until(1_000_000)
        assert len(b.received) == 1
        assert link.total_drops() == 4

    def test_full_duplex_directions_are_independent(self):
        env, a, b, link = self._pair()
        a.send_out(0, Packet.udp(total_size=500))
        b.send_out(0, Packet.udp(total_size=500))
        env.run_until(1_000_000)
        assert len(a.received) == 1 and len(b.received) == 1
        assert link.direction_stats(a).frames_sent == 1
        assert link.direction_stats(b).frames_sent == 1

    def test_rejects_foreign_sender(self):
        env, a, b, link = self._pair()
        stranger = _Sink(env, "stranger")
        with pytest.raises(ValueError):
            link.transmit(Packet.udp(total_size=100), stranger)

    def test_rejects_double_attachment(self):
        env = EventLoop()
        a, b, c = _Sink(env, "a"), _Sink(env, "b"), _Sink(env, "c")
        Link(env, a, 0, b, 0)
        with pytest.raises(ValueError):
            Link(env, a, 0, c, 0)

    def test_rejects_nonpositive_bandwidth(self):
        env = EventLoop()
        with pytest.raises(ValueError):
            Link(env, _Sink(env, "a"), 0, _Sink(env, "b"), 0, bandwidth_gbps=0)


class TestNic:
    def test_rx_rate_limits_spacing(self):
        nic = NicPort(NIC_10GE)
        first = nic.rx_ready_at(0, 1250)  # 1 µs at 10 Gbps (9.7 effective)
        second = nic.rx_ready_at(0, 1250)
        assert second > first
        assert nic.rx_packets == 2

    def test_40ge_effective_rate_below_line_rate(self):
        assert NIC_40GE.effective_rx_gbps < NIC_40GE.speed_gbps

    def test_tx_accounting(self):
        nic = NicPort(NIC_10GE)
        nic.tx_ready_at(0, 500)
        assert nic.tx_bytes == 500
        nic.note_rx_drop()
        assert nic.rx_dropped == 1


class TestPcie:
    def test_transfer_accounting_includes_overhead(self):
        bus = PcieBus(PcieSpec(per_packet_overhead_bytes=8))
        bus.rx_transfer(100)
        bus.tx_transfer(50)
        assert bus.rx_bytes == 108
        assert bus.tx_bytes == 58
        assert bus.total_bytes == 166

    def test_transfer_delay_scales_with_size(self):
        bus = PcieBus()
        assert bus.rx_transfer(10_000) > bus.rx_transfer(100)
