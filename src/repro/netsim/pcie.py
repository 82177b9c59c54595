"""A PCIe bus model for the NF server.

The paper reports PCIe bandwidth savings of 2–58 % (measured with
Intel PCM) because PayloadPark moves fewer payload bytes between the
NIC and the CPU.  The model charges, per packet and per direction, the
frame bytes plus a small fixed overhead for descriptors and TLP
headers, tracks the aggregate byte count for utilization reporting, and
exposes the transfer delay used in the latency budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class PcieSpec:
    """Static characteristics of the server's PCIe attachment."""

    name: str = "PCIe 3.0 x8"
    #: Usable (post-encoding) bandwidth per direction in Gb/s.
    bandwidth_gbps: float = 55.0
    #: Fixed per-packet overhead bytes per direction (descriptor + TLP
    #: headers, amortized over batched doorbells).
    per_packet_overhead_bytes: int = 8
    #: Fixed DMA initiation latency per transfer, in nanoseconds.
    dma_latency_ns: int = 400


class PcieBus:
    """Run-time accounting for one server's PCIe bus.

    A transfer's delay is the DMA latency plus ``round((bytes +
    overhead) * 8 / gbps)`` — a function of the frame's size alone,
    because the spec is frozen and a bus never swaps it, and the same
    function in both directions.  So both look the delay up in one table
    by wire size, filled on a size's first transfer; a looked-up value is
    the computed one, and the byte and transfer counters still move per
    transfer.
    """

    def __init__(self, spec: PcieSpec = PcieSpec()) -> None:
        self.spec = spec
        self.rx_bytes = 0          # device -> host (received packets)
        self.tx_bytes = 0          # host -> device (transmitted packets)
        self.rx_transfers = 0
        self.tx_transfers = 0
        #: wire bytes -> transfer delay ns, filled on first use of a size.
        self._delay_ns: Dict[int, int] = {}

    def rx_transfer(self, wire_bytes: int) -> int:
        """Account a device→host transfer; return its delay in nanoseconds."""
        spec = self.spec
        nbytes = wire_bytes + spec.per_packet_overhead_bytes
        self.rx_bytes += nbytes
        self.rx_transfers += 1
        delay = self._delay_ns.get(wire_bytes)
        if delay is None:
            delay = self._delay_ns[wire_bytes] = spec.dma_latency_ns + int(
                round(nbytes * 8 / spec.bandwidth_gbps)
            )
        return delay

    def tx_transfer(self, wire_bytes: int) -> int:
        """Account a host→device transfer; return its delay in nanoseconds."""
        spec = self.spec
        nbytes = wire_bytes + spec.per_packet_overhead_bytes
        self.tx_bytes += nbytes
        self.tx_transfers += 1
        delay = self._delay_ns.get(wire_bytes)
        if delay is None:
            delay = self._delay_ns[wire_bytes] = spec.dma_latency_ns + int(
                round(nbytes * 8 / spec.bandwidth_gbps)
            )
        return delay

    @property
    def total_bytes(self) -> int:
        """Total bytes moved in both directions."""
        return self.rx_bytes + self.tx_bytes
