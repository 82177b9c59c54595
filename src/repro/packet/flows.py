"""5-tuple flow identities and deterministic flow generation.

The NFs in the paper (firewall ACLs, MazuNAT translation, Maglev hashing)
all key on the 5-tuple; the traffic generator synthesizes a configurable
number of distinct flows so those NFs exercise realistic table sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Address

#: A flow as five plain ints ``(src, dst, protocol, src_port, dst_port)``
#: — what the NAT and Maglev tables are keyed by, because it can be read
#: off a packet's headers without building a :class:`FiveTuple`.
FlowKey = Tuple[int, int, int, int, int]

_pack_key = struct.Struct("<5I").pack


def flow_hash(key: FlowKey) -> int:
    """A deterministic 64-bit hash independent of Python's seeded hash().

    Maglev needs a hash that is stable across runs so that experiments
    are reproducible; Python's builtin ``hash`` is salted per process,
    so the fields are mixed here: FNV-1a over each field's four
    low-order bytes, least significant first.
    """
    value = 0xCBF29CE484222325
    for byte in _pack_key(*key):
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass(frozen=True)
class FiveTuple:
    """The classic connection 5-tuple."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    protocol: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FiveTuple":
        """Return the 5-tuple of the reverse direction of the flow."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def key(self) -> FlowKey:
        """The flow as five plain ints (see :data:`FlowKey`)."""
        return (
            self.src_ip.value,
            self.dst_ip.value,
            self.protocol,
            self.src_port,
            self.dst_port,
        )

    def stable_hash(self) -> int:
        """:func:`flow_hash` of this flow."""
        return flow_hash(self.key())

    def __str__(self) -> str:
        proto = {PROTO_UDP: "udp", PROTO_TCP: "tcp"}.get(self.protocol, str(self.protocol))
        return f"{self.src_ip}:{self.src_port} -> {self.dst_ip}:{self.dst_port} ({proto})"


class FlowGenerator:
    """Generate a deterministic population of 5-tuple flows.

    Parameters
    ----------
    flow_count:
        Number of distinct flows to cycle through.
    src_subnet / dst_subnet:
        Dotted-quad bases; flows spread source addresses across the
        source subnet and destinations across the destination subnet.
    protocol:
        IP protocol for every flow (UDP by default, as in the paper).
    base_src_port / base_dst_port:
        Starting L4 ports.
    """

    def __init__(
        self,
        flow_count: int = 1024,
        src_subnet: str = "10.1.0.0",
        dst_subnet: str = "10.2.0.0",
        protocol: int = PROTO_UDP,
        base_src_port: int = 10000,
        base_dst_port: int = 80,
    ) -> None:
        if flow_count <= 0:
            raise ValueError("flow_count must be positive")
        self.flow_count = flow_count
        self._src_base = IPv4Address.from_string(src_subnet).value
        self._dst_base = IPv4Address.from_string(dst_subnet).value
        self.protocol = protocol
        self.base_src_port = base_src_port
        self.base_dst_port = base_dst_port
        self._flows: Optional[List[FiveTuple]] = None

    def flows(self) -> List[FiveTuple]:
        """Return (and cache) the full flow population."""
        if self._flows is None:
            self._flows = [self._make_flow(i) for i in range(self.flow_count)]
        return self._flows

    def flow(self, index: int) -> FiveTuple:
        """Return flow *index* (mod the population size)."""
        return self.flows()[index % self.flow_count]

    def _make_flow(self, index: int) -> FiveTuple:
        src_ip = IPv4Address((self._src_base + (index % 65000) + 1) & 0xFFFFFFFF)
        dst_ip = IPv4Address((self._dst_base + (index % 250) + 1) & 0xFFFFFFFF)
        src_port = self.base_src_port + (index % 50000)
        dst_port = self.base_dst_port + (index % 16)
        return FiveTuple(
            src_ip=src_ip,
            dst_ip=dst_ip,
            protocol=self.protocol,
            src_port=src_port,
            dst_port=dst_port,
        )
