"""Match-action tables.

A MAT pairs a match predicate (gate) with an action.  In P4 the match is
expressed over PHV fields through an exact or ternary crossbar; here the
predicate is a Python callable over the :class:`PipelinePacket`, and the
table declares how many crossbar bits, VLIW slots and match entries it
would consume so resource accounting stays faithful.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.switchsim.context import PipelinePacket

#: SRAM bytes per exact-match entry (key + action data + overhead).
ENTRY_BYTES = 16

MatchFn = Callable[[PipelinePacket], bool]
ActionFn = Callable[[PipelinePacket], None]


class MatchActionTable:
    """One match-action table.

    It keeps no hit or miss tallies: what a table did shows in the
    packet it ran on and in the program state its action wrote.

    Parameters
    ----------
    name:
        Table name (unique within a program, used in reports).
    match:
        Predicate deciding whether the action runs for a packet.  ``None``
        means "always run" (an unconditional table).
    action:
        Callable applied to matching packets.
    match_bits:
        Width of the match key in bits (consumes crossbar input bits).
    ternary:
        Whether the match uses the ternary (TCAM) crossbar.
    entries:
        Number of match entries the table is provisioned for; exact-match
        entries consume stage SRAM, ternary entries consume TCAM.
    vliw_slots:
        VLIW action slots the action consumes.
    ingress_ports:
        Optional port gate: the set of ingress ports on which this table
        can possibly match.  The contract is ``match(ctx) is True
        implies ctx.ingress_port in ingress_ports``, so a port plan (see
        :data:`~repro.switchsim.pipeline.PortPlan`) for any other port
        may leave the table out.  ``None`` declares nothing.
    """

    def __init__(
        self,
        name: str,
        action: ActionFn,
        match: Optional[MatchFn] = None,
        match_bits: int = 16,
        ternary: bool = False,
        entries: int = 1,
        vliw_slots: int = 1,
        ingress_ports: Optional[frozenset] = None,
    ) -> None:
        self.name = name
        self.match = match
        self.action = action
        self.match_bits = match_bits
        self.ternary = ternary
        self.entries = entries
        self.vliw_slots = vliw_slots
        self.ingress_ports = ingress_ports

    def apply(self, ctx: PipelinePacket) -> bool:
        """Run the table on *ctx*; return True if the action executed."""
        if ctx.dropped:
            return False
        if self.match is None or self.match(ctx):
            self.action(ctx)
            return True
        return False
