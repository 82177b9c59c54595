"""A MAC-address swapper.

The paper uses a single MAC-swapping NF for the functional-equivalence
experiment (§6.2.6) and, with an added busy loop, as the base for the
synthetic NF-Light/Medium/Heavy functions (§6.3.3): it bounces each
packet straight back toward its sender by exchanging the Ethernet
source and destination addresses.
"""

from __future__ import annotations

from typing import Optional

from repro.nf.base import FORWARDED, NetworkFunction, NfResult
from repro.packet.packet import Packet


class MacSwapper(NetworkFunction):
    """Swap Ethernet source and destination addresses."""

    def __init__(self, swap_cycles: int = 20, name: Optional[str] = None) -> None:
        super().__init__(name=name or "MacSwap")
        self.swap_cycles = swap_cycles

    def process(self, packet: Packet) -> NfResult:
        """Swap the MAC addresses and forward."""
        packet.eth.swap_addresses()
        return FORWARDED
