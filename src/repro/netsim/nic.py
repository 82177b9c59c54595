"""NIC models.

The evaluation uses an Intel 82599ES 10 GbE NIC and an Intel XL710
40 GbE NIC.  Two NIC properties matter for reproducing the paper's
results: the effective per-direction byte throughput the device can
sustain toward the host (the XL710 is well documented to fall short of
40 Gb/s for small and medium frames because of PCIe/descriptor
overheads — this is what caps the baseline at ≈ 34 Gb/s in Fig. 16),
and the receive descriptor ring whose depth bounds in-server buffering.

A spec is data only.  The NIC's run-time state — a free-at cursor per
direction — lives in :class:`~repro.netsim.server_node.NfServerNode`,
which folds a frame's NIC time and its PCIe transfer into one cost row
per wire size.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NicSpec:
    """Static characteristics of a NIC."""

    name: str
    speed_gbps: float
    effective_rx_gbps: float
    effective_tx_gbps: float
    rx_ring_entries: int = 1024
    rx_processing_ns: int = 300  # fixed per-packet DMA/IRQ-less poll cost


#: Intel 82599ES dual-port 10 GbE NIC.
NIC_10GE = NicSpec(
    name="Intel 82599ES 10GE",
    speed_gbps=10.0,
    effective_rx_gbps=9.7,
    effective_tx_gbps=9.7,
    rx_ring_entries=1024,
)

#: Intel XL710 dual-port 40 GbE NIC (effective host throughput ≈ 34 Gb/s).
NIC_40GE = NicSpec(
    name="Intel XL710 40GE",
    speed_gbps=40.0,
    effective_rx_gbps=34.0,
    effective_tx_gbps=34.0,
    rx_ring_entries=1024,
)
