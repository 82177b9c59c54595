"""The traffic generator / sink as a simulation node.

One node plays both roles the PktGen server plays in the paper's
testbed: it offers load into the switch through (usually two) ports and
it receives the packets that come back after the NF chain, measuring
end-to-end latency, delivered goodput and drop rate.

Beyond the legacy constant-rate path, a node can carry a
:class:`~repro.workloads.base.TrafficModel`: a time-varying
:class:`~repro.workloads.schedule.TraceSchedule` modulates the burst
pacing (including silent zero-rate phases), an arrival model perturbs
the gaps (Poisson/MMPP/incast), a custom packet source replaces the
:class:`~repro.traffic.pktgen.PacketFactory`, and a timed replay stream
plays captured frames verbatim onto the event loop, restarting whenever
it runs dry until the run ends.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.netsim.eventloop import EventLoop
from repro.netsim.node import Node
from repro.packet.packet import Packet
from repro.telemetry.latency import LatencyRecorder
from repro.traffic.pktgen import PacketFactory, PktGenConfig
from repro.workloads.base import ARRIVALS_SALT, TimedFrame, TrafficModel, derived_rng


class TrafficGenNode(Node):
    """A PktGen-style traffic source and measurement sink."""

    def __init__(
        self,
        env: EventLoop,
        config: PktGenConfig,
        tx_ports: Optional[List[int]] = None,
        name: str = "pktgen",
        traffic_model: Optional[TrafficModel] = None,
    ) -> None:
        super().__init__(env, name)
        self.config = config
        model = traffic_model or TrafficModel()
        self.schedule = model.schedule
        self.source = (model.source_factory or PacketFactory)(config)
        self._gap_sampler = (
            model.arrivals.sampler(derived_rng(config.seed, ARRIVALS_SALT))
            if model.arrivals is not None
            else None
        )
        self._stream_factory = model.stream_factory
        self._stream_iter: Optional[Iterator[TimedFrame]] = None
        self._stream_epoch_ns = 0
        self.transport = (
            model.transport_factory(config, self)
            if model.transport_factory is not None
            else None
        )
        self.tx_ports = list(tx_ports) if tx_ports is not None else [0, 1]
        if not self.tx_ports:
            raise ValueError("the traffic generator needs at least one TX port")
        self._port_cursor = 0
        self._running = False
        self._start_ns = 0
        self._stop_at_ns: Optional[int] = None
        self.latency = LatencyRecorder()
        # Counters.
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0
        self.useful_bytes_received = 0
        self.bytes_received = 0
        # Closed-loop accounting (always zero on open-loop nodes).
        self.retransmitted_packets = 0
        self.retransmitted_bytes = 0
        self.duplicate_packets_received = 0
        self.duplicate_bytes_received = 0

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def start(self, duration_ns: int) -> None:
        """Begin offering load now and stop after *duration_ns*."""
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        self._running = True
        self._start_ns = self.env.now
        self._stop_at_ns = self.env.now + duration_ns
        if self.transport is not None:
            self.transport.start(self._stop_at_ns)
        elif self._stream_factory is not None:
            self._stream_iter = self._stream_factory(self.config.seed)
            self._stream_epoch_ns = self.env.now
            self._pump_stream()
        else:
            self.env.schedule_in(0, self._emit_burst)

    def stop(self) -> None:
        """Stop offering load (already-queued frames still drain)."""
        self._running = False
        if self.transport is not None:
            self.transport.stop()

    def current_rate_gbps(self) -> float:
        """The offered rate right now (schedule-aware)."""
        if self.schedule is None:
            return self.config.rate_gbps
        return self.schedule.rate_at(self.env.now - self._start_ns)

    def _send(self, packets: Sequence[Packet]) -> int:
        """Stamp, count and send *packets* out the TX ports in turn.

        The generator's one transmit path: a burst, a closed-loop
        transport segment and a replayed frame all leave through it.
        Returns the frames' wire bytes.
        """
        now = self.env.now
        links, tx_ports = self.links, self.tx_ports
        cursor, port_count = self._port_cursor, len(tx_ports)
        sent_bytes = 0
        for packet in packets:
            packet.meta["tx_ns"] = now
            port = tx_ports[cursor]
            cursor = (cursor + 1) % port_count
            sent_bytes += packet.wire_length
            link = links.get(port)
            if link is None:
                raise ValueError(f"{self.name}: no link attached to port {port}")
            link.transmit(packet, self)
        self._port_cursor = cursor
        self.packets_sent += len(packets)
        self.bytes_sent += sent_bytes
        return sent_bytes

    def transmit_segment(self, packet: Packet, retransmission: bool) -> None:
        """Put one closed-loop transport segment on the wire.

        Called by the transport engine instead of the burst pacer; the
        ``packets_sent``/``bytes_sent`` counters include retransmissions
        (they count frames on the wire), while the ``retransmitted_*``
        counters isolate the second-and-later copies so the validation
        engine can reconcile throughput against goodput.
        """
        if retransmission:
            self.retransmitted_packets += 1
            self.retransmitted_bytes += packet.wire_length
        self._send((packet,))

    def _emit_burst(self) -> None:
        if not self._running:
            return
        if self._stop_at_ns is not None and self.env.now >= self._stop_at_ns:
            self._running = False
            return
        rate_gbps = self.current_rate_gbps()
        if rate_gbps <= 0:
            self._sleep_until_active()
            return
        source = self.source
        burst_bytes = self._send(
            [source.next_packet() for _ in range(self.config.burst_size)]
        )
        # Pace the next burst so the long-run offered rate matches the
        # schedule (or the config's constant rate); the arrival model
        # perturbs individual gaps around that target.  Scheduled rates
        # pace from the rate *integral*: quoting the instantaneous rate
        # would sleep almost forever on a ramp rising from ~zero and
        # blindly across phase boundaries.
        if self.schedule is not None:
            target_gap_ns = self.schedule.gap_for_bits(
                self.env.now - self._start_ns, burst_bytes * 8
            )
            if target_gap_ns is None:  # silent for the rest of the run
                self._running = False
                return
        else:
            target_gap_ns = burst_bytes * 8 / rate_gbps
        if self._gap_sampler is not None:
            gap_ns = self._gap_sampler.next_gap_ns(target_gap_ns)
        else:
            gap_ns = target_gap_ns
        self.env.schedule_in(max(1, int(round(gap_ns))), self._emit_burst)

    def _sleep_until_active(self) -> None:
        """Skip a zero-rate phase: wake at the next moment the schedule is live."""
        elapsed = self.env.now - self._start_ns
        active = self.schedule.next_active(elapsed + 1) if self.schedule else None
        if active is None:
            self._running = False
            return
        wake_ns = self._start_ns + active
        if self._stop_at_ns is not None and wake_ns >= self._stop_at_ns:
            self._running = False
            return
        self.env.schedule_at(wake_ns, self._emit_burst)

    # ------------------------------------------------------------------ #
    # Replay streams
    # ------------------------------------------------------------------ #

    def _pump_stream(self) -> None:
        """Schedule the next replayed frame (one outstanding at a time),
        restarting the stream when it runs dry."""
        if not self._running:
            return
        try:
            offset_ns, data = next(self._stream_iter)
        except StopIteration:
            fresh = self._stream_factory(self.config.seed)
            try:
                offset_ns, data = next(fresh)
            except StopIteration:  # an empty stream cannot loop
                self._running = False
                return
            self._stream_iter = fresh
            self._stream_epoch_ns = self.env.now + 1
        when_ns = max(self._stream_epoch_ns + offset_ns, self.env.now)
        if self._stop_at_ns is not None and when_ns >= self._stop_at_ns:
            self._running = False
            return
        self.env.schedule_at(when_ns, self._send_stream_frame, data)

    def _send_stream_frame(self, data: bytes) -> None:
        if not self._running:
            return
        # Rebuild the packet from bytes so loop iterations never share
        # mutable state (the switch attaches/detaches headers in place).
        self._send((Packet.from_bytes(data),))
        self._pump_stream()

    # ------------------------------------------------------------------ #
    # Sink
    # ------------------------------------------------------------------ #

    def handle_packet(self, packet: Packet, port: int) -> None:
        """Count a packet that completed the round trip through the NF chain.

        With a closed-loop transport attached the delivery doubles as the
        segment's acknowledgment, and the transport decides whether this
        is the sequence number's *first* arrival (goodput) or a duplicate
        (an original racing its retransmission — throughput only).
        """
        self.packets_received += 1
        self.bytes_received += packet.wire_length
        if self.transport is not None:
            duplicate = self.transport.on_delivery(packet)
            if duplicate:
                self.duplicate_packets_received += 1
                self.duplicate_bytes_received += packet.useful_bytes
            else:
                self.useful_bytes_received += packet.useful_bytes
        else:
            self.useful_bytes_received += packet.useful_bytes
        tx_ns = packet.meta.get("tx_ns")
        if tx_ns is not None:
            self.latency.record(self.env.now - tx_ns)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for warm-up-window deltas."""
        return {
            "packets_sent": self.packets_sent,
            "bytes_sent": self.bytes_sent,
            "packets_received": self.packets_received,
            "bytes_received": self.bytes_received,
            "useful_bytes_received": self.useful_bytes_received,
            "retransmitted_packets": self.retransmitted_packets,
            "retransmitted_bytes": self.retransmitted_bytes,
            "duplicate_packets_received": self.duplicate_packets_received,
            "duplicate_bytes_received": self.duplicate_bytes_received,
        }
