"""A single match-action stage: local MATs, register arrays and resources."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import ENTRY_BYTES, MatchActionTable
from repro.switchsim.registers import RegisterArray
from repro.switchsim.resources import ResourceBudget, StageResources


class Stage:
    """One stage of the match-action pipeline.

    Independent MATs placed in the same stage execute "in parallel" on
    hardware; in the simulator they execute sequentially in insertion
    order, which is equivalent as long as they touch disjoint state —
    the placement logic in :class:`~repro.switchsim.pipeline.Pipeline`
    treats tables placed in one stage as unordered.
    """

    def __init__(self, index: int, budget: Optional[ResourceBudget] = None) -> None:
        self.index = index
        self.resources = StageResources(budget=budget or ResourceBudget())
        self.tables: List[MatchActionTable] = []
        self.register_arrays: List[RegisterArray] = []
        #: Callback installed by the owning pipeline, called after every
        #: table added, so the port plans compiled against the pipeline
        #: are dropped on a late table addition.
        self.on_change: Optional[Any] = None

    def add_table(self, table: MatchActionTable) -> MatchActionTable:
        """Place *table* in this stage, charging its resource usage."""
        self.resources.allocate_vliw(table.vliw_slots, what=table.name)
        self.resources.allocate_crossbar(table.match_bits, ternary=table.ternary, what=table.name)
        if table.ternary:
            self.resources.allocate_tcam(table.entries, what=table.name)
        else:
            self.resources.allocate_sram(table.entries * ENTRY_BYTES, what=table.name)
        self.tables.append(table)
        if self.on_change is not None:
            self.on_change()
        return table

    def add_register_array(
        self,
        name: str,
        size: int,
        width_bits: int,
        initial: Any = 0,
    ) -> RegisterArray:
        """Create a register array backed by this stage's SRAM."""
        array = RegisterArray(
            name=name,
            size=size,
            width_bits=width_bits,
            stage_resources=self.resources,
            initial=initial,
        )
        self.register_arrays.append(array)
        return array

    def apply(self, ctx: PipelinePacket) -> None:
        """Run every table in this stage on the packet."""
        for table in self.tables:
            if ctx.dropped:
                return
            table.apply(ctx)
