"""The NF server as a simulation node.

The server is modeled as: NIC receive path (byte-rate limited, finite
buffering) → PCIe DMA into host memory → the NF framework pipeline
(whose throughput is set by its slowest stage and whose latency is the
sum of its stages, per :class:`~repro.nf.server.NfServerModel`) → PCIe
back to the NIC → NIC transmit path → the wire toward the switch.

The NIC and the PCIe bus are arithmetic on a frame's wire size, which
the node does itself.  Each direction of the NIC is a byte-rate limiter
— a free-at cursor advanced by ``round(bytes * 8 / gbps)`` — and each
PCIe transfer costs the DMA latency plus ``round((bytes + overhead) *
8 / gbps)`` and moves ``bytes + overhead``.  Apart from the cursors,
all of it is a function of the size alone, because the specs are frozen
and a server never swaps them.  So the node keeps one cost row per size
and direction, filled on that size's first frame:

* receive: NIC busy ns; NIC done → host-ready ns (the NIC's fixed poll
  cost plus the PCIe delay); PCIe bytes;
* transmit: PCIe delay; NIC busy ns; PCIe bytes.

A looked-up value is the computed one.  The two PCIe byte counters that
:meth:`NfServerNode.stats` reports still move per frame.

The server buffers at most its NIC's RX ring
(:attr:`~repro.netsim.nic.NicSpec.rx_ring_entries`) plus one framework
ring per NF; a frame arriving to a full server is an overflow drop.

Packets the NF chain drops either vanish (leaving their parked payload
to the switch's evictor) or, when the server config's ``explicit_drop``
is set, are turned into a truncated notification carrying the
PayloadPark header with the Explicit-Drop opcode (§6.2.4).
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Dict, Optional, Tuple

from repro.core.header import OP_EXPLICIT_DROP
from repro.netsim.eventloop import EventLoop, calendar_of
from repro.netsim.nic import NicSpec, NIC_10GE
from repro.netsim.node import Node
from repro.netsim.pcie import PcieSpec
from repro.nf.server import NfServerModel
from repro.packet.packet import Packet

#: A direction's cost row: three ints (see the module docstring).
CostRow = Tuple[int, int, int]


def _wire_ns(nbytes: int, gbps: float) -> int:
    return int(round(nbytes * 8 / gbps))


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
        self.nic_spec = nic_spec
        #: Every server's PCIe attachment; read when a size's row is filled.
        self.pcie_spec = PcieSpec()
        #: wire bytes -> receive / transmit cost row, filled on first use.
        self._rx_rows: Dict[int, CostRow] = {}
        self._tx_rows: Dict[int, CostRow] = {}
        self._rx_free_at_ns = 0
        self._tx_free_at_ns = 0
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
        self._buffer_capacity = (
            nic_spec.rx_ring_entries + model.config.framework.ring_entries * len(model.chain)
        )
        # Counters.
        self.accepted_packets = 0
        self.processed_packets = 0
        self.forwarded_packets = 0
        self.chain_dropped_packets = 0
        self.explicit_drop_notifications = 0
        self.overflow_drops = 0
        self.busy_ns = 0
        self.pcie_rx_bytes = 0  # device -> host (received frames)
        self.pcie_tx_bytes = 0  # host -> device (transmitted frames)
        # The two per-packet event callbacks, bound once: NF completion,
        # and the NIC-tx end, which is the switch port's sender (see
        # ``Node.port_sender``) — the frame goes straight onto the link.
        self._on_complete = self._complete
        self._on_tx_done = self.port_sender(switch_port)
        #: The calendar both events go straight into (``None`` on the
        #: reference loop: ``schedule_at``).
        self._buckets, self._times = calendar_of(env)

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
        if self._in_server >= self._buffer_capacity:
            self.overflow_drops += 1
            return
        self._in_server += 1
        self.accepted_packets += 1
        wire_bytes = packet.wire_length
        row = self._rx_rows.get(wire_bytes)
        if row is None:
            row = self._rx_row(wire_bytes)
        nic_busy, to_host, pcie_bytes = row
        now = self.env.now
        free_at = self._rx_free_at_ns
        nic_done = (now if now > free_at else free_at) + nic_busy
        self._rx_free_at_ns = nic_done
        self.pcie_rx_bytes += pcie_bytes
        ready = nic_done + to_host
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
            factor = self._rng.gauss(1.0, jitter)
            if factor < 0.1:
                factor = 0.1
            service = int(bottleneck_ns * factor)
            if service < 1:
                service = 1
        free_at = self._worker_free_at_ns
        finish = (ready if ready > free_at else free_at) + service
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
        if completion < finish:
            completion = finish
        buckets = self._buckets
        if buckets is None:
            self.env.schedule_at(completion, self._on_complete, packet)
        else:
            bucket = buckets.get(completion)
            if bucket is None:
                buckets[completion] = [(self._on_complete, packet)]
                heappush(self._times, completion)
            else:
                bucket.append((self._on_complete, packet))

    # ------------------------------------------------------------------ #
    # Completion / transmit path
    # ------------------------------------------------------------------ #

    def _complete(self, packet: Packet) -> None:
        """The NF pipeline finished with *packet*: run the chain on it."""
        self._in_server -= 1
        self.processed_packets += 1
        result = self.model.process_packet(packet)
        if not result.forwarded:
            self.chain_dropped_packets += 1
            pp = packet.pp
            if not (self.model.config.explicit_drop and pp is not None and pp.enb == 1):
                return
            # An Explicit-Drop notification: truncated to its headers,
            # it goes back like a forwarded frame (and counts as one).
            if packet.payload_length:
                packet.park_leading_payload(packet.payload_length)
            pp.op = OP_EXPLICIT_DROP
            self.explicit_drop_notifications += 1
        wire_bytes = packet.wire_length
        row = self._tx_rows.get(wire_bytes)
        if row is None:
            row = self._tx_row(wire_bytes)
        pcie_delay, nic_busy, pcie_bytes = row
        self.pcie_tx_bytes += pcie_bytes
        start = self.env.now + pcie_delay
        free_at = self._tx_free_at_ns
        tx_done = (start if start > free_at else free_at) + nic_busy
        self._tx_free_at_ns = tx_done
        self.forwarded_packets += 1
        buckets = self._buckets
        if buckets is None:
            self.env.schedule_at(tx_done, self._on_tx_done, packet)
        else:
            bucket = buckets.get(tx_done)
            if bucket is None:
                buckets[tx_done] = [(self._on_tx_done, packet)]
                heappush(self._times, tx_done)
            else:
                bucket.append((self._on_tx_done, packet))

    # ------------------------------------------------------------------ #
    # Cost rows
    # ------------------------------------------------------------------ #

    def _rx_row(self, wire_bytes: int) -> CostRow:
        """Fill and return the receive row for frames of *wire_bytes*."""
        nic, pcie = self.nic_spec, self.pcie_spec
        pcie_bytes = wire_bytes + pcie.per_packet_overhead_bytes
        row = self._rx_rows[wire_bytes] = (
            _wire_ns(wire_bytes, nic.effective_rx_gbps),
            nic.rx_processing_ns + pcie.dma_latency_ns + _wire_ns(pcie_bytes, pcie.bandwidth_gbps),
            pcie_bytes,
        )
        return row

    def _tx_row(self, wire_bytes: int) -> CostRow:
        """Fill and return the transmit row for frames of *wire_bytes*."""
        nic, pcie = self.nic_spec, self.pcie_spec
        pcie_bytes = wire_bytes + pcie.per_packet_overhead_bytes
        row = self._tx_rows[wire_bytes] = (
            pcie.dma_latency_ns + _wire_ns(pcie_bytes, pcie.bandwidth_gbps),
            _wire_ns(wire_bytes, nic.effective_tx_gbps),
            pcie_bytes,
        )
        return row

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
            "pcie_rx_bytes": self.pcie_rx_bytes,
            "pcie_tx_bytes": self.pcie_tx_bytes,
            "busy_ns": self.busy_ns,
        }
