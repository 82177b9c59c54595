"""The packet tagger (Algorithm 1, stage 1).

Every packet considered for Split gets a unique tag built from two
registers: a table index that walks the lookup table as a circular
buffer, and a generation clock that disambiguates successive occupants
of the same slot.  Both counters are 2-byte registers; the atomic
read-modify-write of the stateful ALU guarantees that back-to-back
packets in the pipeline receive distinct indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.switchsim.context import PipelinePacket
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.registers import RegisterArray


@dataclass(frozen=True)
class Tag:
    """The (table index, clock) pair produced by the tagger for one packet."""

    tbl_idx: int
    clk: int


class PacketTagger:
    """Owns the table-index and clock registers of one NF-server binding."""

    def __init__(
        self,
        name: str,
        pipeline: Pipeline,
        table_entries: int,
        clock_max: int = 65_536,
        stage_index: int = 0,
    ) -> None:
        if table_entries <= 0:
            raise ValueError("table_entries must be positive")
        if clock_max < 2:
            raise ValueError("clock_max must be at least 2")
        self.table_entries = table_entries
        self.clock_max = clock_max
        stage = pipeline.stage(stage_index)
        self._tbl_idx: RegisterArray = stage.add_register_array(
            name=f"{name}.tbl_idx", size=1, width_bits=16, initial=table_entries - 1
        )
        self._clk: RegisterArray = stage.add_register_array(
            name=f"{name}.clk", size=1, width_bits=16, initial=clock_max - 1
        )

    def next_tag(self, ctx: PipelinePacket) -> Tag:
        """Advance both counters for the packet in *ctx* and return its tag.

        Matches Algorithm 1 lines 4–7: each counter is incremented and
        wrapped with a single stateful access, and the post-increment
        values become the packet's metadata.
        """
        tbl_idx = self._tbl_idx.read_modify_write(
            ctx, 0, lambda value: (value + 1) % self.table_entries
        )
        clk = self._clk.read_modify_write(ctx, 0, lambda value: (value + 1) % self.clock_max)
        return Tag(tbl_idx=tbl_idx, clk=clk)

    def cells(self) -> Tuple[List[int], List[int]]:
        """Storage of the table-index and clock registers, for port plans."""
        return self._tbl_idx.storage, self._clk.storage

    # Control-plane helpers ------------------------------------------------

    def peek(self) -> Tag:
        """Control-plane read of the current counter values."""
        return Tag(tbl_idx=self._tbl_idx.peek(0), clk=self._clk.peek(0))
