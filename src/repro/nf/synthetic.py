"""Synthetic NFs of calibrated CPU cost (NF-Light / NF-Medium / NF-Heavy).

Section 6.3.3 studies how the NF's per-packet CPU cost determines
whether PayloadPark's extra packets-per-second help or hurt: the authors
take a MAC swapper and add a busy loop to reach roughly 50, 300 and 570
cycles per packet.  :class:`SyntheticNf` reproduces that knob.
"""

from __future__ import annotations

from typing import Optional

from repro.nf.base import FORWARDED, NetworkFunction, NfResult
from repro.packet.packet import Packet

#: Average per-packet CPU cycles of the three synthetic NFs (§6.3.3).
NF_LIGHT_CYCLES = 50
NF_MEDIUM_CYCLES = 300
NF_HEAVY_CYCLES = 570


class SyntheticNf(NetworkFunction):
    """A MAC swapper padded with a busy loop to a target cycle count."""

    def __init__(self, cycles_per_packet: int, name: Optional[str] = None) -> None:
        if cycles_per_packet <= 0:
            raise ValueError("cycles_per_packet must be positive")
        super().__init__(name=name or f"SyntheticNf({cycles_per_packet})")
        self.cycles_per_packet = cycles_per_packet

    def process(self, packet: Packet) -> NfResult:
        """Swap MACs and forward; the cycle budget is the chain's
        estimate for this stage (``cycles_per_packet``)."""
        packet.eth.swap_addresses()
        return FORWARDED

    @classmethod
    def light(cls) -> "SyntheticNf":
        """NF-Light: ≈ 50 cycles per packet."""
        return cls(NF_LIGHT_CYCLES, name="NF-Light")

    @classmethod
    def medium(cls) -> "SyntheticNf":
        """NF-Medium: ≈ 300 cycles per packet."""
        return cls(NF_MEDIUM_CYCLES, name="NF-Medium")

    @classmethod
    def heavy(cls) -> "SyntheticNf":
        """NF-Heavy: ≈ 570 cycles per packet."""
        return cls(NF_HEAVY_CYCLES, name="NF-Heavy")
