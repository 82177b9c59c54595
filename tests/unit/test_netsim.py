"""Unit tests for the discrete-event substrate: event loop, links, and the
NF server's NIC and PCIe cost rows."""

import pytest

from repro.errors import LinkSpecError
from repro.netsim.eventloop import EventLoop, FastEventLoop, calendar_of
from repro.netsim.link import Link
from repro.netsim.nic import NIC_10GE, NIC_40GE
from repro.netsim.node import Node
from repro.netsim.pcie import PcieSpec
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
        link.transmit(packet, a)
        env.run_until(10_000)
        assert len(b.received) == 1
        arrival, _port, _pkt = b.received[0]
        assert arrival == 1000 * 8 // 10 + 100  # 800 ns serialization + 100 ns propagation

    def test_back_to_back_frames_queue_behind_each_other(self):
        env, a, b, link = self._pair()
        for _ in range(3):
            link.transmit(Packet.udp(total_size=1000), a)
        env.run_until(100_000)
        arrivals = [t for t, _p, _k in b.received]
        assert arrivals == sorted(arrivals)
        assert arrivals[1] - arrivals[0] == pytest.approx(800, abs=2)

    def test_buffer_overflow_drops(self):
        env, a, b, link = self._pair(buffer_bytes=1_500)
        for _ in range(5):
            link.transmit(Packet.udp(total_size=1000), a)
        env.run_until(1_000_000)
        assert len(b.received) == 1
        assert link.total_drops() == 4

    def test_full_duplex_directions_are_independent(self):
        env, a, b, link = self._pair()
        link.transmit(Packet.udp(total_size=500), a)
        link.transmit(Packet.udp(total_size=500), b)
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("propagation_delay_ns", -1),
            ("propagation_delay_ns", 2.5),
            ("buffer_bytes", 0),
            ("buffer_bytes", -1_500),
            ("bandwidth_gbps", float("nan")),
        ],
    )
    def test_rejects_bad_parameters_at_construction(self, field, value):
        # A negative delay used to fail mid-run inside schedule_at, and a
        # zero buffer silently dropped every frame.
        env = FastEventLoop()
        with pytest.raises(LinkSpecError, match=field):
            Link(env, _Sink(env, "a"), 0, _Sink(env, "b"), 0, **{field: value})


def _lazy_pair(loop_cls, buffer_bytes=1_500):
    """An 8 Gb/s link (a 1,000-byte frame serializes in 1,000 ns), no delay."""
    env = loop_cls()
    a, b = _Sink(env, "a"), _Sink(env, "b")
    link = Link(env, a, 0, b, 0, bandwidth_gbps=8.0, propagation_delay_ns=0,
                buffer_bytes=buffer_bytes)
    return env, a, b, link


class TestLazySerializationEnd:
    """A frame's serialization end is an event only when another event
    already shares its nanosecond (see ``repro.netsim.link``)."""

    def _send_at(self, env, link, sender, when):
        env.schedule_at(when, lambda: link.transmit(Packet.udp(total_size=1000), sender))

    @pytest.mark.parametrize("loop_cls", [EventLoop, FastEventLoop])
    def test_a_transmit_at_an_elided_tx_done_sees_that_frame_drained(self, loop_cls):
        env, a, b, link = _lazy_pair(loop_cls)
        link.transmit(Packet.udp(total_size=1000), a)  # tx_done = 1,000
        self._send_at(env, link, a, 1_000)  # scheduled after: its finish goes first
        if loop_cls is FastEventLoop:
            assert env.pending_events == 2  # the send and the arrival, no finish
            assert list(link._a_to_b.in_flight) == [(1_000, 1_000)]
        env.run_until(10_000)
        stats = link.direction_stats(a)
        assert (stats.frames_sent, stats.frames_dropped) == (2, 0)
        assert stats.peak_queue_bytes == 1_000
        assert [t for t, _p, _k in b.received] == [1_000, 2_000]

    @pytest.mark.parametrize("loop_cls", [EventLoop, FastEventLoop])
    def test_a_tx_done_with_a_pending_event_schedules_the_finish(self, loop_cls):
        env, a, b, link = _lazy_pair(loop_cls)
        self._send_at(env, link, a, 1_000)  # scheduled first: runs before the finish
        link.transmit(Packet.udp(total_size=1000), a)  # tx_done = 1,000
        assert env.pending_events == 3  # the send, the finish and the arrival
        assert not link._a_to_b.in_flight
        env.run_until(10_000)
        stats = link.direction_stats(a)
        # The second frame met a buffer still holding the first one.
        assert (stats.frames_sent, stats.frames_dropped) == (1, 1)
        assert [t for t, _p, _k in b.received] == [1_000]

    def test_the_heap_loop_elides_nothing(self):
        env, a, b, link = _lazy_pair(EventLoop, buffer_bytes=10_000)
        assert calendar_of(env) == (None, None)
        for _ in range(3):
            link.transmit(Packet.udp(total_size=1000), a)
        assert not link._a_to_b.in_flight
        env.run_until(10_000)
        assert env.events_executed == 6  # a finish and an arrival per frame
        assert len(b.received) == 3


class TestNic:
    def test_rx_rate_limits_spacing(self, server_rig):
        rig = server_rig()
        first, _ = rig.hop(0, 1250)  # 1 µs at 10 Gbps (9.7 effective)
        second, _ = rig.hop(0, 1250)
        assert second - first == round(1250 * 8 / 9.7)
        assert rig.server.accepted_packets == 2

    def test_40ge_effective_rate_below_line_rate(self):
        assert NIC_40GE.effective_rx_gbps < NIC_40GE.speed_gbps

    def test_tx_accounting(self, server_rig):
        rig = server_rig()
        _, first = rig.hop(0, 500)
        _, second = rig.hop(0, 500)
        assert second - first == round(500 * 8 / 9.7)
        assert rig.server.forwarded_packets == 2


class TestPcie:
    def test_transfer_accounting_includes_overhead(self, server_rig):
        rig = server_rig(pcie=PcieSpec(per_packet_overhead_bytes=8))
        rig.hop(0, 100)
        assert len(rig.hop(0, 50, forwarded=False)) == 1  # received, never sent back
        stats = rig.server.stats()
        assert (stats["pcie_rx_bytes"], stats["pcie_tx_bytes"]) == (108 + 58, 108)

    def test_transfer_delay_scales_with_size(self, server_rig):
        def pcie_rx_ns(size):
            ready, _ = server_rig().hop(0, size)
            nic_ns = round(size * 8 / NIC_10GE.effective_rx_gbps) + NIC_10GE.rx_processing_ns
            return ready - nic_ns

        assert pcie_rx_ns(10_000) > pcie_rx_ns(100) > PcieSpec().dma_latency_ns
