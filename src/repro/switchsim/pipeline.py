"""The match-action pipeline: an ordered list of stages."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.packet.packet import Packet
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.resources import ResourceBudget
from repro.switchsim.stage import Stage


class Pipeline:
    """An ordered sequence of match-action stages.

    The number of stages is fixed at construction, mirroring hardware
    (Tofino-class chips have 12 per pipe).  Programs ask for a stage by
    index and install tables / register arrays into it; requesting a
    stage beyond the last one is an error — exactly the constraint that
    forces PayloadPark to recirculate when it wants to park more than
    160 bytes.
    """

    def __init__(self, stage_count: int = 12, budget: Optional[ResourceBudget] = None) -> None:
        if stage_count <= 0:
            raise ValueError("a pipeline needs at least one stage")
        self.stage_count = stage_count
        self.budget = budget or ResourceBudget()
        self.stages: List[Stage] = [Stage(i, budget=self.budget) for i in range(stage_count)]
        #: Called with no argument whenever a stage gains a table: a
        #: program drops its port plans there, so a control-plane table
        #: install retires the stale ones before the next packet.
        self.on_table_added: List[Callable[[], None]] = []
        for stage in self.stages:
            stage.on_change = self._table_added

    def _table_added(self) -> None:
        for callback in self.on_table_added:
            callback()

    def stage(self, index: int) -> Stage:
        """Return stage *index* (0-based)."""
        if not 0 <= index < self.stage_count:
            raise IndexError(
                f"stage {index} does not exist; this pipeline has {self.stage_count} stages"
            )
        return self.stages[index]

    def process(self, ctx: PipelinePacket) -> PipelinePacket:
        """Run the packet through every stage in order (a single pass)."""
        for stage in self.stages:
            if ctx.dropped:
                break
            stage.apply(ctx)
        return ctx

    def tables(self) -> List[MatchActionTable]:
        """Every table in the order :meth:`process` reaches them."""
        return [table for stage in self.stages for table in stage.tables]

    def sram_bytes_used(self) -> int:
        """Total SRAM bytes allocated across all stages."""
        return sum(stage.resources.sram_bytes_used for stage in self.stages)


#: A switch pass's egress decision, ``(egress_port, owed_ns, drop_reason)``:
#: the port the packet leaves by and the recirculation latency it owes on
#: top of the switch's forwarding latency, with ``drop_reason`` None; or
#: ``(None, 0, reason)`` for a dropped packet.  It is all the switch node
#: reads of a pass.
Decision = Tuple[Optional[int], int, Optional[str]]

#: One kernel standing in for the stage walk on an ingress port:
#: ``plan(packet, ingress_port)`` does the work of every pass and returns
#: the :data:`Decision`.  A program that knows what its tables do to a
#: packet from one port fuses them into such a function; it leaves the
#: same packet, register state and counters behind as the stage walk, and
#: decides what :meth:`~repro.switchsim.pipe.Pipe.decision` derives from
#: the walk's :class:`PipelinePacket`.  A plan is valid until a table is
#: added to its pipeline (:attr:`Pipeline.on_table_added`).
PortPlan = Callable[[Packet, int], Decision]
