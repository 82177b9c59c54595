"""A MazuNAT-style source NAT.

Outbound flows (identified by their 5-tuple) are rewritten to an
external address and a dynamically allocated external port; the binding
is remembered so reverse traffic can be translated back.  Only headers
are touched — the payload is never read — which is what makes a NAT a
shallow NF that PayloadPark can serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.nf.base import FORWARDED, NetworkFunction, NfResult
from repro.packet.flows import FiveTuple, FlowKey
from repro.packet.ipv4 import IPv4Address
from repro.packet.packet import Packet

#: Inclusive range of external ports available for allocation.
PORT_LOW, PORT_HIGH = 20_000, 60_000


@dataclass(frozen=True)
class NatBinding:
    """One NAT translation: the original flow and its external rewrite."""

    internal: FiveTuple
    external_ip: IPv4Address
    external_port: int


class NatPortExhausted(RuntimeError):
    """No free external ports remain for new flows (:meth:`Nat.binding_for`;
    the datapath drops the packet instead)."""


class Nat(NetworkFunction):
    """Source NAT with a hash-table flow lookup (MazuNAT-like behaviour).

    Parameters
    ----------
    external_ip:
        Address that replaces the source address of outbound packets.
    lookup_cycles / rewrite_cycles:
        CPU cost of the flow-table lookup and of the header rewrite
        (including checksum adjustment).
    """

    def __init__(
        self,
        external_ip: str = "203.0.113.1",
        lookup_cycles: int = 80,
        rewrite_cycles: int = 60,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name or "NAT")
        self.external_ip = IPv4Address.from_string(external_ip)
        self.lookup_cycles = lookup_cycles
        self.rewrite_cycles = rewrite_cycles
        #: Outbound table: the flow's plain-int form, read straight off
        #: the headers -> its external port.  The external address is
        #: the same for every binding, so the port is all a binding adds.
        self._bindings: Dict[FlowKey, int] = {}
        #: Reverse table: external port -> the (source address, source
        #: port) it replaced, which is what a reply's destination is
        #: translated back to.  Its size is the number of ports in use.
        self._reverse: Dict[int, Tuple[IPv4Address, int]] = {}
        self._next_port = PORT_LOW

    # ------------------------------------------------------------------ #
    # Binding management
    # ------------------------------------------------------------------ #

    def _bind(self, key: FlowKey, src_ip: IPv4Address, src_port: int) -> int:
        """Allocate the next free external port to the flow *key*."""
        reverse = self._reverse
        span = PORT_HIGH - PORT_LOW + 1
        if len(reverse) >= span:
            raise NatPortExhausted("all external NAT ports are in use")
        port = self._next_port
        while port in reverse:
            port = PORT_LOW + (port + 1 - PORT_LOW) % span
        self._next_port = PORT_LOW + (port + 1 - PORT_LOW) % span
        self._bindings[key] = port
        reverse[port] = (src_ip, src_port)
        return port

    def binding_for(self, flow: FiveTuple) -> NatBinding:
        """Return (allocating if needed) the binding for an outbound flow.

        The :class:`NatBinding` is built here, on request; the datapath
        never builds one.
        """
        key = flow.key()
        port = self._bindings.get(key)
        if port is None:
            port = self._bind(key, flow.src_ip, flow.src_port)
        return NatBinding(internal=flow, external_ip=self.external_ip, external_port=port)

    @property
    def active_bindings(self) -> int:
        """Number of live translations."""
        return len(self._bindings)

    # ------------------------------------------------------------------ #
    # Datapath
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet) -> NfResult:
        """Translate the packet's source address and port."""
        ip = packet.ip
        l4 = packet.l4
        if ip is None or l4 is None:
            # Non-IP or headerless traffic passes through untranslated.
            return FORWARDED
        if ip.dst.value == self.external_ip.value:
            # Reverse direction: translate the destination back.
            internal = self._reverse.get(l4.dst_port)
            if internal is None:
                return self.drop("no NAT binding for reverse flow")
            ip.dst, l4.dst_port = internal
            return FORWARDED
        src = ip.src
        key = (src.value, ip.dst.value, ip.protocol, l4.src_port, l4.dst_port)
        port = self._bindings.get(key)
        if port is None:
            if len(self._reverse) > PORT_HIGH - PORT_LOW:
                # A full table drops the new flow's packet; the run goes on.
                return self.drop("NAT ports exhausted")
            port = self._bind(key, src, l4.src_port)
        ip.src = self.external_ip
        l4.src_port = port
        return FORWARDED
