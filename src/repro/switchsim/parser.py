"""Programmable parser and deparser.

The parser turns the wire frame into PHV containers according to the
program's header definitions; the deparser reassembles the frame from the
(possibly modified) containers.  In the simulator packets already travel
in parsed form (:class:`~repro.packet.packet.Packet`), so the default
parser simply wraps the packet in a :class:`PipelinePacket` and the
default deparser is a no-op; programs supply hooks to do protocol-
specific work, e.g. PayloadPark's parser recognizes its custom header on
packets coming back from the NF server.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.packet.packet import Packet
from repro.switchsim.context import PipelinePacket

ParseHook = Callable[[PipelinePacket], None]
DeparseHook = Callable[[PipelinePacket], None]


class Parser:
    """Builds the per-packet pipeline context, then runs the program hook."""

    def __init__(self, hook: Optional[ParseHook] = None) -> None:
        self.hook = hook

    def parse(self, packet: Packet, ingress_port: int) -> PipelinePacket:
        """Create a :class:`PipelinePacket` for *packet* and apply the hook."""
        ctx = PipelinePacket(packet=packet, ingress_port=ingress_port)
        if self.hook is not None:
            self.hook(ctx)
        return ctx

    def reparse(self, ctx: PipelinePacket) -> PipelinePacket:
        """Re-run the parse hook for a recirculated packet."""
        ctx.reset_pass_state()
        if self.hook is not None:
            self.hook(ctx)
        return ctx


class Deparser:
    """Finalizes the packet after the last stage of a pass."""

    def __init__(self, hook: Optional[DeparseHook] = None) -> None:
        self.hook = hook

    def deparse(self, ctx: PipelinePacket) -> PipelinePacket:
        """Apply the program's deparse hook (header reassembly)."""
        if self.hook is not None:
            self.hook(ctx)
        return ctx
