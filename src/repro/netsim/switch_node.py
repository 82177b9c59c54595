"""The switch as a simulation node.

Wraps a :class:`~repro.core.program.SwitchProgram` (PayloadPark or
baseline): every frame delivered by a link is run through the program,
and the egress decision it returns — an egress port and the
recirculation latency the packet owes, or a drop reason — is applied
after the switch's forwarding latency plus that owed latency.
Egress contention and buffering are modeled by the outgoing link.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict

from repro.core.program import SwitchProgram
from repro.netsim.eventloop import EventLoop, calendar_of
from repro.netsim.node import Node
from repro.packet.packet import Packet


class SwitchNode(Node):
    """A Tofino-class switch running a dataplane program."""

    #: Cut-through forwarding latency of a Tofino-class switch pipeline.
    BASE_LATENCY_NS = 800

    def __init__(
        self,
        env: EventLoop,
        program: SwitchProgram,
        name: str = "switch",
        base_latency_ns: int = BASE_LATENCY_NS,
    ) -> None:
        super().__init__(env, name)
        if base_latency_ns < 0:
            raise ValueError(f"base_latency_ns must be non-negative, got {base_latency_ns}")
        self.program = program
        self.base_latency_ns = base_latency_ns
        self.packets_dropped = 0
        #: egress port -> that port's sender (``Node.port_sender``),
        #: built on the port's first frame.  An unwired port still gets
        #: one: it raises at send time, after the forwarding latency.
        self._egress: Dict[int, Callable[[Packet], None]] = {}
        #: The calendar the egress event goes straight into (``None`` on
        #: the reference loop: ``schedule_at``).
        self._buckets, self._times = calendar_of(env)

    def handle_packet(self, packet: Packet, port: int) -> None:
        """Run the frame through the dataplane program and forward it."""
        egress, owed_ns, reason = self.program.process(packet, port)
        if reason is not None:
            self.packets_dropped += 1
            return
        send = self._egress.get(egress)
        if send is None:
            send = self._egress[egress] = self.port_sender(egress)
        when = self.env.now + self.base_latency_ns + owed_ns
        buckets = self._buckets
        if buckets is None:
            self.env.schedule_at(when, send, packet)
        else:
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [(send, packet)]
                heappush(self._times, when)
            else:
                bucket.append((send, packet))
