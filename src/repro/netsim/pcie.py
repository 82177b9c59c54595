"""A PCIe bus model for the NF server.

The paper reports PCIe bandwidth savings of 2–58 % (measured with
Intel PCM) because PayloadPark moves fewer payload bytes between the
NIC and the CPU.  The model charges, per packet and per direction, the
frame bytes plus a small fixed overhead for descriptors and TLP
headers, and delays the transfer by a fixed DMA latency plus those
bytes at the bus rate.

A spec is data only: :class:`~repro.netsim.server_node.NfServerNode`
applies it, keeping the per-direction byte counts its ``stats()``
reports and folding the transfer delay into its per-size cost rows.
"""

from __future__ import annotations

from dataclasses import dataclass


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
