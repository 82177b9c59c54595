"""The switch as a simulation node.

Wraps a :class:`~repro.core.program.SwitchProgram` (PayloadPark or
baseline): every frame delivered by a link is run through the program's
pipe, and the resulting egress decision is applied after the switch's
forwarding latency (plus any recirculation penalty the program reports).
Egress contention and buffering are modeled by the outgoing link.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.program import SwitchProgram
from repro.netsim.eventloop import EventLoop
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
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.drop_reasons: Dict[str, int] = {}
        #: egress port -> that port's sender (``Node.port_sender``),
        #: built on the port's first frame.  An unwired port still gets
        #: one: it raises at send time, after the forwarding latency.
        self._egress: Dict[int, Callable[[Packet], None]] = {}
        # Observability hooks (repro.obs): None keeps the hot path lean.
        self.obs_recorder = None
        self.obs_profiler = None

    def handle_packet(self, packet: Packet, port: int) -> None:
        """Run the frame through the dataplane program and forward it."""
        self.packets_in += 1
        profiler = self.obs_profiler
        if profiler is None:
            ctx = self.program.process(packet, port)
        else:
            profiler.enter("pipeline_walk")
            try:
                ctx = self.program.process(packet, port)
            finally:
                profiler.exit()
        if ctx.dropped:
            self.packets_dropped += 1
            self.drop_reasons[ctx.drop_reason] = self.drop_reasons.get(ctx.drop_reason, 0) + 1
            self._record_drop(packet, ctx.drop_reason)
            return
        if ctx.egress_port is None:
            self.packets_dropped += 1
            self.drop_reasons["no-egress-decision"] = (
                self.drop_reasons.get("no-egress-decision", 0) + 1
            )
            self._record_drop(packet, "no-egress-decision")
            return
        egress = ctx.egress_port
        latency = self.base_latency_ns
        if ctx.recirculations:
            # Programs only add latency for recirculated passes, so the
            # (per-packet) lookup is skipped for the common single-pass
            # case.
            latency += self.program.extra_latency_ns(ctx)
        self.packets_out += 1
        send = self._egress.get(egress)
        if send is None:
            send = self._egress[egress] = self.port_sender(egress)
        env = self.env
        env.schedule_at(env.now + latency, send, packet)

    def _record_drop(self, packet: Packet, reason: str) -> None:
        """Flight-recorder drop hook (off the hot path's common case)."""
        recorder = self.obs_recorder
        if recorder is not None:
            pkt_id = packet.meta.get("obs_pkt")
            if pkt_id is not None:
                recorder.packet_dropped(pkt_id, self.env.now, self.name, reason)

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for warm-up-window deltas."""
        return {
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "packets_dropped": self.packets_dropped,
        }
