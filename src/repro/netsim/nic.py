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
from typing import Dict


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
    """Run-time state of one NIC port: a byte-rate limiter plus a ring.

    A frame's time on the NIC is ``round(bytes * 8 / gbps)`` — a
    function of its size alone, because the spec is frozen and a port
    never swaps it.  So each direction looks the time up by wire size,
    filling its table on a size's first frame, as a link direction does
    for serialization; a looked-up value is the computed one, and every
    counter still moves per frame.
    """

    def __init__(self, spec: NicSpec) -> None:
        self.spec = spec
        self.rx_free_at_ns = 0
        self.tx_free_at_ns = 0
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        #: wire bytes -> receive / transmit ns, filled on first use of a size.
        self._rx_ns: Dict[int, int] = {}
        self._tx_ns: Dict[int, int] = {}

    def rx_ready_at(self, now_ns: int, wire_bytes: int) -> int:
        """Time at which the NIC finishes moving a received frame to the host."""
        busy = self._rx_ns.get(wire_bytes)
        if busy is None:
            busy = self._rx_ns[wire_bytes] = int(
                round(wire_bytes * 8 / self.spec.effective_rx_gbps)
            )
        free_at = self.rx_free_at_ns
        done = (now_ns if now_ns > free_at else free_at) + busy
        self.rx_free_at_ns = done
        self.rx_packets += 1
        self.rx_bytes += wire_bytes
        return done + self.spec.rx_processing_ns

    def tx_ready_at(self, now_ns: int, wire_bytes: int) -> int:
        """Time at which the NIC finishes transmitting a frame from the host."""
        busy = self._tx_ns.get(wire_bytes)
        if busy is None:
            busy = self._tx_ns[wire_bytes] = int(
                round(wire_bytes * 8 / self.spec.effective_tx_gbps)
            )
        free_at = self.tx_free_at_ns
        done = (now_ns if now_ns > free_at else free_at) + busy
        self.tx_free_at_ns = done
        self.tx_packets += 1
        self.tx_bytes += wire_bytes
        return done

    def note_rx_drop(self) -> None:
        """Record a frame dropped because the receive path was saturated."""
        self.rx_dropped += 1
