"""The match-action pipeline: an ordered list of stages."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.packet.packet import Packet
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.resources import ResourceBudget
from repro.switchsim.stage import Stage

#: One pass of a packet as a port plan describes it: the tables whose
#: action ran, and the one among them that dropped the packet (after
#: which no table is reached), if any.
PlanPass = Tuple[Iterable[MatchActionTable], Optional[MatchActionTable]]
#: ``(table, hits, misses)`` for every table a packet touched.
TableDeltas = List[Tuple[MatchActionTable, int, int]]


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
        #: Live port plans, whose bulk table accounting may be pending.
        self._plans: Set["PortPlan"] = set()
        for stage in self.stages:
            stage.on_change = self._table_added

    def _table_added(self, table: MatchActionTable) -> None:
        self.settle_counters()
        self._plans.clear()  # all compiled against the version that ends here
        self.version += 1
        table.settle = self.settle_counters

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

    # ------------------------------------------------------------------ #
    # Port plans
    # ------------------------------------------------------------------ #

    def walk(self, passes: Sequence[PlanPass]) -> TableDeltas:
        """Hits and misses one packet owes each table for taking *passes*."""
        tables = self.tables()
        hits: Dict[MatchActionTable, int] = dict.fromkeys(tables, 0)
        misses: Dict[MatchActionTable, int] = dict.fromkeys(tables, 0)
        for hit_tables, dropped_by in passes:
            hit_tables = frozenset(hit_tables)
            for table in tables:
                if table in hit_tables:
                    hits[table] += 1
                else:
                    misses[table] += 1
                if table is dropped_by:
                    break
        return [
            (table, hits[table], misses[table])
            for table in tables
            if hits[table] or misses[table]
        ]

    def settle_counters(self) -> None:
        """Fold every live plan's tallies into the table counters."""
        for plan in self._plans:
            plan.settle()

    def sram_bytes_used(self) -> int:
        """Total SRAM bytes allocated across all stages."""
        return sum(stage.resources.sram_bytes_used for stage in self.stages)


class PortPlan:
    """One kernel standing in for the stage walk on an ingress port.

    A program that knows what its tables do to a packet from one port
    fuses them into a single function, ``run(packet, ingress_port)``,
    which does the work of every pass and returns the finished
    :class:`PipelinePacket`.  The kernel owes the pipeline the hit or
    miss each table would have recorded.  It pays in bulk: every call
    bumps ``counts[k]`` for the outcome *k* it took, ``deltas[k]`` says
    what one packet taking that outcome owes each table (see
    :meth:`Pipeline.walk`), and :meth:`settle` turns the counts into
    per-table hits and misses whenever a counter is read.  A plan is
    valid for the pipeline version it was compiled against; the owner
    checks :attr:`version` before each use.
    """

    __slots__ = ("pipeline", "version", "run", "counts", "deltas")

    def __init__(
        self,
        pipeline: Pipeline,
        run: Callable[[Packet, int], PipelinePacket],
        counts: List[int],
        deltas: Sequence[TableDeltas],
    ) -> None:
        self.pipeline = pipeline
        self.version = pipeline.version
        self.run = run
        self.counts = counts
        self.deltas = deltas
        if deltas:
            pipeline._plans.add(self)

    def retire(self) -> None:
        """Settle up and leave the pipeline: the owner is dropping the plan."""
        self.settle()
        self.pipeline._plans.discard(self)

    def settle(self) -> None:
        """Move the pending tallies into the tables' counters."""
        counts = self.counts
        for outcome, packets in enumerate(counts):
            if packets:
                counts[outcome] = 0
                for table, hits, misses in self.deltas[outcome]:
                    table.count(hits * packets, misses * packets)
