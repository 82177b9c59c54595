"""The NF server as a simulation node.

The server is modeled as: NIC receive path (byte-rate limited, finite
buffering) → PCIe DMA into host memory → the NF framework pipeline
(whose throughput is set by its slowest stage and whose latency is the
sum of its stages, per :class:`~repro.nf.server.NfServerModel`) → PCIe
back to the NIC → NIC transmit path → the wire toward the switch.

Packets the NF chain drops either vanish (leaving their parked payload
to the switch's evictor) or, when Explicit Drops are enabled, are turned
into a truncated notification carrying the PayloadPark header with the
Explicit-Drop opcode (§6.2.4).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.header import OP_EXPLICIT_DROP
from repro.netsim.eventloop import EventLoop
from repro.netsim.nic import NicPort, NicSpec, NIC_10GE
from repro.netsim.node import Node
from repro.netsim.pcie import PcieBus
from repro.nf.server import NfServerModel
from repro.packet.packet import Packet


class NfServerNode(Node):
    """A commodity server running an NF framework and chain."""

    def __init__(
        self,
        env: EventLoop,
        model: NfServerModel,
        nic_spec: NicSpec = NIC_10GE,
        name: str = "nf-server",
        switch_port: int = 0,
        seed: int = 1,
        cache_cost_model: bool = False,
    ) -> None:
        super().__init__(env, name)
        self.model = model
        self.nic = NicPort(nic_spec)
        self.pcie = PcieBus()
        self.switch_port = switch_port
        self._rng = random.Random(seed)
        self._worker_free_at_ns = 0
        self._in_server = 0
        # Fast path: the cost model is a pure function of the chain and
        # framework config, so precompute it once instead of re-walking
        # the chain's cycle estimates for every packet.  The reference
        # path keeps querying the model live (None disables the cache).
        if cache_cost_model:
            self._bottleneck_ns: Optional[float] = model.bottleneck_service_ns()
            self._pipeline_latency_ns: Optional[float] = model.pipeline_latency_ns()
        else:
            self._bottleneck_ns = None
            self._pipeline_latency_ns = None
        self._buffer_capacity = min(
            model.buffer_capacity_packets(),
            nic_spec.rx_ring_entries + model.config.framework.ring_entries * len(model.chain),
        )
        # Counters.
        self.accepted_packets = 0
        self.processed_packets = 0
        self.forwarded_packets = 0
        self.chain_dropped_packets = 0
        self.explicit_drop_notifications = 0
        self.overflow_drops = 0
        self.busy_ns = 0
        # Observability hooks (repro.obs): None keeps the hot path lean.
        self.obs_recorder = None
        self.obs_profiler = None
        # The two per-packet event callbacks, bound once: NF completion,
        # and the NIC-tx end, which is the switch port's sender (see
        # ``Node.port_sender``) — the frame goes straight onto the link.
        self._on_complete = self._complete
        self._on_tx_done = self.port_sender(switch_port)

    def invalidate_cost_cache(self) -> None:
        """Recompute the memoized cost model after an NF chain mutation.

        Control-plane churn (firewall rule bursts) changes the chain's
        per-stage cycle estimates mid-run.  The reference path queries
        the model live for every packet and picks the change up
        immediately; this hook re-derives the fast path's cached values
        at the same simulated instant, keeping the two paths identical
        under active fault schedules.  No-op when caching is off.
        """
        if self._bottleneck_ns is not None:
            self._bottleneck_ns = self.model.bottleneck_service_ns()
            self._pipeline_latency_ns = self.model.pipeline_latency_ns()

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def handle_packet(self, packet: Packet, port: int) -> None:
        """A frame arrived from the switch on the server's NIC port."""
        profiler = self.obs_profiler
        if profiler is not None:
            profiler.enter("nf_processing")
        try:
            if self._in_server >= self._buffer_capacity:
                self.nic.note_rx_drop()
                self.overflow_drops += 1
                recorder = self.obs_recorder
                if recorder is not None:
                    pkt_id = packet.meta.get("obs_pkt")
                    if pkt_id is not None:
                        recorder.packet_dropped(
                            pkt_id, self.env.now, self.name, "server-buffer-overflow"
                        )
                return
            self._in_server += 1
            self.accepted_packets += 1
            wire_bytes = packet.wire_length
            nic_done = self.nic.rx_ready_at(self.env.now, wire_bytes)
            pcie_delay = self.pcie.rx_transfer(wire_bytes)
            ready = nic_done + pcie_delay
            bottleneck_ns = (
                self._bottleneck_ns
                if self._bottleneck_ns is not None
                else self.model.bottleneck_service_ns()
            )
            # Per-packet service time: the bottleneck stage's, jittered.
            jitter = self.model.config.service_jitter
            if jitter <= 0:
                service = int(bottleneck_ns)
            else:
                factor = max(0.1, self._rng.gauss(1.0, jitter))
                service = max(1, int(bottleneck_ns * factor))
            start = max(ready, self._worker_free_at_ns)
            finish = start + service
            self._worker_free_at_ns = finish
            self.busy_ns += service
            # The remaining (non-bottleneck) pipeline stages add latency
            # but do not constrain throughput.
            pipeline_latency_ns = (
                self._pipeline_latency_ns
                if self._pipeline_latency_ns is not None
                else self.model.pipeline_latency_ns()
            )
            completion = finish + int(pipeline_latency_ns - service)
            completion = max(completion, finish)
            self.env.schedule_at(completion, self._on_complete, packet)
        finally:
            if profiler is not None:
                profiler.exit()

    # ------------------------------------------------------------------ #
    # Completion / transmit path
    # ------------------------------------------------------------------ #

    def _complete(self, packet: Packet) -> None:
        """The NF pipeline finished with *packet*: run the chain on it."""
        profiler = self.obs_profiler
        if profiler is not None:
            profiler.enter("nf_processing")
        try:
            self._in_server -= 1
            self.processed_packets += 1
            result = self.model.process_packet(packet)
            recorder = self.obs_recorder
            if recorder is not None:
                pkt_id = packet.meta.get("obs_pkt")
                if pkt_id is not None:
                    recorder.nf_processed(
                        pkt_id, self.env.now, self.name, result.forwarded
                    )
            if not result.forwarded:
                self.chain_dropped_packets += 1
                if recorder is not None:
                    pkt_id = packet.meta.get("obs_pkt")
                    if pkt_id is not None:
                        recorder.packet_dropped(
                            pkt_id, self.env.now, self.name, "nf-chain-drop"
                        )
                if (
                    self.model.wants_explicit_drop
                    and packet.pp is not None
                    and packet.pp.enb == 1
                ):
                    self._send_explicit_drop(packet)
                return
            self._transmit(packet)
        finally:
            if profiler is not None:
                profiler.exit()

    def _transmit(self, packet: Packet) -> None:
        wire_bytes = packet.wire_length
        pcie_delay = self.pcie.tx_transfer(wire_bytes)
        tx_done = self.nic.tx_ready_at(self.env.now + pcie_delay, wire_bytes)
        self.forwarded_packets += 1
        self.env.schedule_at(tx_done, self._on_tx_done, packet)

    def _send_explicit_drop(self, packet: Packet) -> None:
        """Truncate the packet and return it with the Explicit-Drop opcode."""
        if packet.payload_length:
            packet.park_leading_payload(packet.payload_length)
        packet.pp.op = OP_EXPLICIT_DROP
        self.explicit_drop_notifications += 1
        self._transmit(packet)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def queue_occupancy(self) -> int:
        """Packets currently buffered inside the server."""
        return self._in_server

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for warm-up-window deltas."""
        return {
            "accepted_packets": self.accepted_packets,
            "processed_packets": self.processed_packets,
            "forwarded_packets": self.forwarded_packets,
            "chain_dropped_packets": self.chain_dropped_packets,
            "explicit_drop_notifications": self.explicit_drop_notifications,
            "overflow_drops": self.overflow_drops,
            "pcie_rx_bytes": self.pcie.rx_bytes,
            "pcie_tx_bytes": self.pcie.tx_bytes,
            "busy_ns": self.busy_ns,
        }
