"""The match-action pipeline: an ordered list of stages."""

from __future__ import annotations

from typing import Callable, List, Optional

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
        #: Bumped whenever a stage gains a table; port plans compare it
        #: so a control-plane table install retires the stale ones.
        self.version = 0
        for stage in self.stages:
            stage.on_change = self._table_added

    def _table_added(self) -> None:
        self.version += 1

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


class PortPlan:
    """One kernel standing in for the stage walk on an ingress port.

    A program that knows what its tables do to a packet from one port
    fuses them into a single function, ``run(packet, ingress_port)``,
    which does the work of every pass and returns the finished
    :class:`PipelinePacket`: the same packet outcome, and the same
    register and counter writes, as the stage walk.  A plan is valid for
    the pipeline version it was compiled against; the owner checks
    :attr:`version` before each use.
    """

    __slots__ = ("pipeline", "version", "run")

    def __init__(self, pipeline: Pipeline, run: Callable[[Packet, int], PipelinePacket]) -> None:
        self.pipeline = pipeline
        self.version = pipeline.version
        self.run = run
