"""The lookup table: metadata + payload register arrays (§3.3, Fig. 4).

PayloadPark layers a lookup-table abstraction over the raw register API:

* the **metadata table** is a register array whose entries hold the
  generation clock of the packet occupying a slot plus the expiry
  threshold counting down toward eviction, and
* the **payload table** is a two-dimensional array whose columns (payload
  blocks) are MAT-local register arrays striped across the pipeline's
  stages; on the switch, row *i* of every column together holds the
  parked payload of the packet tagged with table index *i*.

Here a block is layout and SRAM, not storage: its array fixes which stage
holds which byte range, takes that stage's SRAM and draws its stage's
one stateful access per pass, but the bytes parked at index *i* are one
stored value, ``payloads[i]``.  Nothing reads one block's bytes on
their own, so Split stores the whole payload once and Merge takes it
back once.

The stage walk's register accesses go through the owning packet's
context so the single-stateful-access-per-array-per-pass restriction is
enforced by the switch substrate, exactly as on the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.config import TABLE_ENTRIES_LIMIT
from repro.switchsim.context import PipelinePacket
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.registers import SramBlock

#: Where the table sits in the pipeline (0-indexed).  The metadata array
#: is in the paper's Stage 2, the one Algorithm 1 probes and Algorithm 2
#: validates in; payload blocks start in the stage after it (Stages 3..N).
METADATA_STAGE = 1
FIRST_PAYLOAD_STAGE = 2


@dataclass(frozen=True)
class MetadataEntry:
    """One metadata-table slot: the occupant's clock and the expiry countdown.

    ``exp == 0`` means the slot is free; any non-zero value means it is
    occupied and will be evicted after ``exp`` more probes by the Split
    stage's table index.
    """

    clk: int = 0
    exp: int = 0

    @property
    def occupied(self) -> bool:
        """True when a parked payload currently owns this slot."""
        return self.exp > 0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a Split-stage probe of the metadata table."""

    claimed: bool
    evicted: bool
    previous: MetadataEntry


@dataclass(frozen=True)
class ReleaseResult:
    """Outcome of a Merge-stage validation of the metadata table."""

    valid: bool
    previous: MetadataEntry


@dataclass(frozen=True)
class PayloadBlockSlot:
    """Placement of one payload block: its stage and pass.  Block *i*
    covers the *length* payload bytes that follow blocks ``0..i-1``."""

    block_index: int
    stage_index: int
    pass_number: int
    length: int


class LookupTable:
    """Metadata table plus striped payload table for one NF-server binding.

    :attr:`block_slots` and :attr:`block_arrays` are the payload table's
    layout: each block's stage, pass and byte range, and the
    :class:`SramBlock` that takes its SRAM and its stateful access.
    They hold no bytes.  :attr:`payloads` does: one entry per table
    index, the whole payload parked there (``b""`` when none is).

    Parameters
    ----------
    name:
        Unique prefix for the register arrays (one lookup table per
        NF-server binding may share a pipe with others).
    pipeline:
        The pipe's match-action pipeline; register arrays are allocated
        from its stages' SRAM budgets.
    entries:
        Capacity ``M`` of the table.
    parked_bytes:
        Total payload bytes parked per packet.
    block_bytes:
        Payload-block width (bytes stored per register array).
    allow_second_pass:
        Whether blocks that do not fit in the first pass may be placed
        for a recirculation pass (striped across *all* stages, mirroring
        the paper's use of a second pipe's stages).
    """

    METADATA_ENTRY_BITS = 32  # 16-bit clock + 16-bit expiry threshold

    def __init__(
        self,
        name: str,
        pipeline: Pipeline,
        entries: int,
        parked_bytes: int,
        block_bytes: int = 16,
        allow_second_pass: bool = False,
    ) -> None:
        if entries <= 0:
            raise ValueError("lookup table needs a positive number of entries")
        if entries > TABLE_ENTRIES_LIMIT:
            raise ValueError(
                f"lookup table capacity {entries} exceeds the 16-bit table index"
            )
        self.name = name
        self.entries = entries

        self.metadata = pipeline.stage(METADATA_STAGE).add_register_array(
            name=f"{name}.meta_tbl",
            size=entries,
            width_bits=self.METADATA_ENTRY_BITS,
            initial=MetadataEntry(),
        )

        self.block_slots: List[PayloadBlockSlot] = self._plan_blocks(
            pipeline, parked_bytes, block_bytes, allow_second_pass
        )
        self.block_arrays: List[SramBlock] = [
            SramBlock(
                name=f"{name}.pload_tbl[{slot.block_index}]",
                size=entries,
                width_bits=slot.length * 8,
                stage_resources=pipeline.stage(slot.stage_index).resources,
            )
            for slot in self.block_slots
        ]
        self.payloads: List[bytes] = [b""] * entries

    # ------------------------------------------------------------------ #
    # Layout planning
    # ------------------------------------------------------------------ #

    @staticmethod
    def _plan_blocks(
        pipeline: Pipeline,
        parked_bytes: int,
        block_bytes: int,
        allow_second_pass: bool,
    ) -> List[PayloadBlockSlot]:
        """Assign each payload block to a stage and a pipeline pass.

        First-pass blocks occupy one register array per stage from
        :data:`FIRST_PAYLOAD_STAGE` to the end of the pipeline (10 stages →
        160 bytes with 16-byte blocks).  Remaining bytes require a
        recirculation pass and are striped round-robin across *all*
        stages, which corresponds to the paper storing the extra 224
        bytes across the stages reached via recirculation.
        """
        slots: List[PayloadBlockSlot] = []
        remaining = parked_bytes
        block_index = 0

        first_pass_stages = list(range(FIRST_PAYLOAD_STAGE, pipeline.stage_count))
        for stage_index in first_pass_stages:
            if remaining <= 0:
                break
            length = min(block_bytes, remaining)
            slots.append(
                PayloadBlockSlot(
                    block_index=block_index,
                    stage_index=stage_index,
                    pass_number=0,
                    length=length,
                )
            )
            block_index += 1
            remaining -= length

        if remaining > 0:
            if not allow_second_pass:
                capacity = len(first_pass_stages) * block_bytes
                raise ValueError(
                    f"parking {parked_bytes} bytes needs recirculation: a single pass "
                    f"stores at most {capacity} bytes with {block_bytes}-byte blocks"
                )
            second_pass_stages = list(range(pipeline.stage_count))
            stage_cursor = 0
            while remaining > 0:
                # Round-robin across all stages; a stage may host more than
                # one second-pass block (multiple MATs execute in parallel).
                stage_index = second_pass_stages[stage_cursor % len(second_pass_stages)]
                length = min(block_bytes, remaining)
                slots.append(
                    PayloadBlockSlot(
                        block_index=block_index,
                        stage_index=stage_index,
                        pass_number=1,
                        length=length,
                    )
                )
                block_index += 1
                remaining -= length
                stage_cursor += 1
        return slots

    @property
    def uses_second_pass(self) -> bool:
        """True when some payload blocks are only reachable via recirculation."""
        return any(slot.pass_number > 0 for slot in self.block_slots)

    def blocks_for_pass(self, pass_number: int) -> List[Tuple[PayloadBlockSlot, SramBlock]]:
        """Return ``(slot, array)`` pairs handled during *pass_number*."""
        return [
            (slot, array)
            for slot, array in zip(self.block_slots, self.block_arrays)
            if slot.pass_number == pass_number
        ]

    # ------------------------------------------------------------------ #
    # Metadata-table dataplane operations
    # ------------------------------------------------------------------ #

    def probe_and_claim(
        self, ctx: PipelinePacket, index: int, clk: int, max_exp: int
    ) -> ProbeResult:
        """Algorithm 1, stage 2: one stateful access to the metadata table.

        If the probed slot is occupied its expiry threshold is
        decremented; if the slot is (or becomes) free it is claimed for
        this packet by writing the clock and resetting the threshold.
        """
        outcome = {}

        def update(entry: MetadataEntry) -> MetadataEntry:
            exp = entry.exp
            if exp >= 1:
                exp -= 1
            if exp == 0:
                outcome["claimed"] = True
                outcome["evicted"] = entry.occupied
                outcome["previous"] = entry
                return MetadataEntry(clk=clk, exp=max_exp)
            outcome["claimed"] = False
            outcome["evicted"] = False
            outcome["previous"] = entry
            return MetadataEntry(clk=entry.clk, exp=exp)

        self.metadata.read_modify_write(ctx, index, update)
        return ProbeResult(
            claimed=outcome["claimed"],
            evicted=outcome["evicted"],
            previous=outcome["previous"],
        )

    def validate_and_release(self, ctx: PipelinePacket, index: int, clk: int) -> ReleaseResult:
        """Algorithm 2, stage 2: one stateful access validating a Merge request.

        The request is valid when the slot is occupied and its stored
        clock matches the tag; in that case the slot is freed.  A
        mismatch means the payload was prematurely evicted (or the slot
        was re-used), so the slot is left untouched.
        """
        outcome = {}

        def update(entry: MetadataEntry) -> MetadataEntry:
            if entry.occupied and entry.clk == clk:
                outcome["valid"] = True
                outcome["previous"] = entry
                return MetadataEntry(clk=0, exp=0)
            outcome["valid"] = False
            outcome["previous"] = entry
            return entry

        self.metadata.read_modify_write(ctx, index, update)
        return ReleaseResult(valid=outcome["valid"], previous=outcome["previous"])

    # ------------------------------------------------------------------ #
    # Control-plane introspection
    # ------------------------------------------------------------------ #

    def occupancy(self) -> int:
        """Number of occupied slots (control-plane view)."""
        return self.metadata.occupancy(lambda entry: entry.occupied)

    def occupancy_fraction(self) -> float:
        """Occupied fraction of the table."""
        return self.occupancy() / self.entries

    def peek_metadata(self, index: int) -> MetadataEntry:
        """Control-plane read of a metadata slot."""
        return self.metadata.peek(index)

    def peek_payload(self, index: int) -> bytes:
        """Control-plane read of the payload parked at *index*."""
        return self.payloads[index]

    def occupied_indices(self) -> List[int]:
        """Indices of currently occupied slots (control-plane scan)."""
        return [
            index for index in range(self.entries)
            if self.metadata.peek(index).occupied
        ]

    def drain_slot(self, index: int) -> bool:
        """Control-plane reclamation of one slot: free metadata *and* payload.

        Returns True when the slot was occupied.  The caller is
        responsible for the accounting (the control plane records each
        drained payload as an eviction, exactly as the expiry policy
        would have) — draining without accounting orphans the payload,
        which the validation subsystem's no-orphaned-payload invariant
        detects.
        """
        if not self.metadata.peek(index).occupied:
            return False
        self.metadata.poke(index, MetadataEntry())
        self.payloads[index] = b""
        return True
