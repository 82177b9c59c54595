"""NIC models.

The evaluation uses an Intel 82599ES 10 GbE NIC and an Intel XL710
40 GbE NIC.  Two NIC properties matter for reproducing the paper's
results: the effective per-direction byte throughput the device can
sustain toward the host (the XL710 is well documented to fall short of
40 Gb/s for small and medium frames because of PCIe/descriptor
overheads — this is what caps the baseline at ≈ 34 Gb/s in Fig. 16),
and the receive descriptor ring whose depth bounds in-server buffering.
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


class NicPort:
    """Run-time state of one NIC port: a byte-rate limiter plus a ring."""

    def __init__(self, spec: NicSpec) -> None:
        self.spec = spec
        self.rx_free_at_ns = 0
        self.tx_free_at_ns = 0
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0

    def rx_ready_at(self, now_ns: int, wire_bytes: int) -> int:
        """Time at which the NIC finishes moving a received frame to the host."""
        start = max(now_ns, self.rx_free_at_ns)
        done = start + int(round(wire_bytes * 8 / self.spec.effective_rx_gbps))
        self.rx_free_at_ns = done
        self.rx_packets += 1
        self.rx_bytes += wire_bytes
        return done + self.spec.rx_processing_ns

    def tx_ready_at(self, now_ns: int, wire_bytes: int) -> int:
        """Time at which the NIC finishes transmitting a frame from the host."""
        start = max(now_ns, self.tx_free_at_ns)
        done = start + int(round(wire_bytes * 8 / self.spec.effective_tx_gbps))
        self.tx_free_at_ns = done
        self.tx_packets += 1
        self.tx_bytes += wire_bytes
        return done

    def note_rx_drop(self) -> None:
        """Record a frame dropped because the receive path was saturated."""
        self.rx_dropped += 1
