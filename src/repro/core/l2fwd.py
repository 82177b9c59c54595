"""L2 forwarding used by both the PayloadPark and the baseline programs.

The switch forwards packets by destination MAC address (Fig. 3's "L2
FWD" block); entries are installed by the control plane.  Traffic from a
PayloadPark-enabled ingress port is steered to its NF server regardless
of MAC (the NF server is a bump-in-the-wire middlebox), while packets
returning from the NF server are forwarded by MAC with a per-binding
default egress (in the paper's testbed, the traffic generator's port).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.packet.ethernet import MacAddress


class L2ForwardingTable:
    """A MAC-address to egress-port map with per-binding defaults."""

    def __init__(self) -> None:
        self._entries: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0

    def add_entry(self, mac: MacAddress, port: int) -> None:
        """Install (or overwrite) a MAC → port entry."""
        self._entries[mac.value] = port

    def lookup(self, mac: MacAddress, default: Optional[int] = None) -> Optional[int]:
        """Return the egress port for *mac*, or *default* on a miss."""
        self.lookups += 1
        port = self._entries.get(mac.value)
        if port is not None:
            self.hits += 1
            return port
        return default

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, mac: MacAddress) -> bool:
        return mac.value in self._entries
