"""Base class for simulation nodes (hosts and switches).

A node sends in one of two ways.  Code that is already running for the
frame (the traffic generator's burst loop) calls :meth:`Node.send_out`.
Code that sends from a *scheduled event* — the switch after its
forwarding latency, the NF server when its NIC finishes — schedules the
port's :meth:`Node.port_sender` as the event callback, so the event's
own frame is the one that calls ``Link.transmit``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.packet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.netsim.eventloop import EventLoop
    from repro.netsim.link import Link


class Node:
    """Anything that terminates links: traffic generators, switches, servers.

    A node owns a set of numbered ports; the topology wires each port to
    one end of a :class:`~repro.netsim.link.Link`.  Subclasses implement
    :meth:`handle_packet`, which the link calls when a frame finishes
    arriving.
    """

    def __init__(self, env: "EventLoop", name: str) -> None:
        self.env = env
        self.name = name
        self.links: Dict[int, "Link"] = {}

    def attach_link(self, port: int, link: "Link") -> None:
        """Register *link* as connected to local *port* (called by Link)."""
        if port in self.links:
            raise ValueError(f"{self.name}: port {port} already has a link attached")
        self.links[port] = link

    def send_out(self, port: int, packet: Packet) -> None:
        """Transmit *packet* out of local *port*."""
        link = self.links.get(port)
        if link is None:
            raise ValueError(f"{self.name}: no link attached to port {port}")
        link.transmit(packet, self)

    def port_sender(self, port: int) -> Callable[[Packet], None]:
        """``send_out`` bound to *port*, as a one-argument event callback.

        An event carries one argument, the packet, so a node that sends
        from a scheduled event (the switch after its forwarding latency,
        the server when its NIC finishes) schedules a per-port sender:
        built once per port, it runs as the event's own frame and calls
        the link directly — no ``partial`` and no ``send_out`` frame in
        between.  It resolves the port's link and the link's
        ``transmit`` *per frame*, never at build time: a sender may be
        built before the port is wired (an unwired port raises at send
        time, like ``send_out``), and the perf ledger's tracer and the
        hop-seam tests swap ``Link.transmit`` at class level after
        wiring — a bound ``transmit`` captured here would run past them.
        """
        links = self.links

        def send(packet: Packet) -> None:
            link = links.get(port)
            if link is None:
                raise ValueError(f"{self.name}: no link attached to port {port}")
            link.transmit(packet, self)

        return send

    def handle_packet(self, packet: Packet, port: int) -> None:
        """Receive a frame that arrived on local *port*; must be overridden."""
        raise NotImplementedError
