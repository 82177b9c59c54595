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
        :class:`~repro.switchsim.pipeline.PortPlan`) for any other port
        may account the table as a miss without evaluating it.  ``None``
        declares nothing.
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
        #: Installed by the owning pipeline: folds hits and misses that
        #: port plans tallied in bulk into the counters before a read.
        self.settle: Optional[Callable[[], None]] = None
        self._hits = 0
        self._misses = 0

    @property
    def hit_count(self) -> int:
        """Packets whose action ran, whichever engine processed them."""
        if self.settle is not None:
            self.settle()
        return self._hits

    @property
    def miss_count(self) -> int:
        """Packets that reached the table without matching."""
        if self.settle is not None:
            self.settle()
        return self._misses

    def apply(self, ctx: PipelinePacket) -> bool:
        """Run the table on *ctx*; return True if the action executed."""
        if ctx.dropped:
            return False
        if self.match is None or self.match(ctx):
            self.action(ctx)
            self._hits += 1
            return True
        self._misses += 1
        return False

    def count(self, hits: int, misses: int) -> None:
        """Account *hits* and *misses* decided without running :meth:`apply`."""
        self._hits += hits
        self._misses += misses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchActionTable(name={self.name!r}, entries={self.entries})"
