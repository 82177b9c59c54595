"""The Split operation (Algorithm 1), expressed as match-action tables.

Split runs on packets arriving at a PayloadPark-enabled ingress port:

* **Stage 1** (pipeline stage 0 here, 0-indexed): the packet tagger
  advances the table-index and clock registers and records the values in
  the packet's user metadata.
* **Stage 2**: the metadata table is probed at the table index.  A free
  (or newly evicted) slot is claimed; the PayloadPark header is added
  with ENB=1 and the tag, and the payload bytes to be parked are removed
  from the packet.  If the slot is occupied, or the payload is smaller
  than the minimum parking size, the header is added with every field
  zeroed (ENB=0) and the packet continues unmodified.
* **Stages 3..N**: the parked payload is striped block-by-block into the
  MAT-local payload register arrays.  When the configured parked size
  exceeds one pass's capacity, the packet is recirculated and the
  remaining blocks are written during the second pass.  Each block's
  table makes its array's stateful access; the bytes go to the lookup
  table's payload row once, at the first block.
* A final forwarding table steers the (now header-mostly) packet to the
  binding's NF-server port.

The tables are the reference.  :meth:`SplitPath.compile_plan` fuses them
into the one kernel a traffic port runs by default.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.counters import PayloadParkCounters
from repro.core.header import OP_MERGE, TAG_CLK_BITS, TAG_CRCS, PayloadParkHeader, tag_crc
from repro.core.lookup_table import METADATA_STAGE, LookupTable, MetadataEntry
from repro.core.tagger import PacketTagger
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipeline import Decision, Pipeline, PortPlan

#: Metadata keys used to pass information between Split stages, mirroring
#: the paper's user-defined ``meta`` struct.
META_TAG_TBL_IDX = "split.tag_tbl_idx"
META_TAG_CLK = "split.tag_clk"
META_PARKED_PAYLOAD = "split.parked_payload"

#: Algorithm 1's Stage 1 and Stage 2, as 0-indexed pipeline stages; the
#: probe runs in the stage that holds the metadata array it probes.
TAGGER_STAGE = 0
PROBE_STAGE = METADATA_STAGE


class SplitPath:
    """Installs and implements the Split tables for one NF-server binding."""

    def __init__(
        self,
        binding: NfServerBinding,
        config: PayloadParkConfig,
        pipeline: Pipeline,
        lookup: LookupTable,
        tagger: PacketTagger,
        counters: PayloadParkCounters,
    ) -> None:
        self.binding = binding
        self.config = config
        self.pipeline = pipeline
        self.lookup = lookup
        self.tagger = tagger
        self.counters = counters
        self._ingress_ports = frozenset(binding.ingress_ports)
        #: Flight-recorder hook (repro.obs); None keeps the path lean.
        self.obs_recorder = None

    # ------------------------------------------------------------------ #
    # Table installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Create the Split MATs and place them into their stages."""
        self.pipeline.stage(TAGGER_STAGE).add_table(
            MatchActionTable(
                name=f"{self.binding.name}.split_tagger",
                match=self._match_split_candidate,
                action=self._action_tag,
                match_bits=16,
                vliw_slots=2,
                ingress_ports=self._ingress_ports,
            )
        )
        self.pipeline.stage(PROBE_STAGE).add_table(
            MatchActionTable(
                name=f"{self.binding.name}.split_probe",
                match=self._match_split_ingress,
                action=self._action_probe,
                match_bits=16,
                vliw_slots=4,
                ingress_ports=self._ingress_ports,
            )
        )
        self._install_stores(0)
        if self.lookup.uses_second_pass:
            last_stage = self.pipeline.stage_count - 1
            self.pipeline.stage(last_stage).add_table(
                MatchActionTable(
                    name=f"{self.binding.name}.split_recirculate",
                    match=self._match_recirculation_request,
                    action=lambda ctx: ctx.request_recirculation(),
                    match_bits=17,
                    vliw_slots=1,
                    ingress_ports=self._ingress_ports,
                )
            )
            self._install_stores(1)

    def _install_stores(self, pass_number: int) -> None:
        for slot, array in self.lookup.blocks_for_pass(pass_number):
            self.pipeline.stage(slot.stage_index).add_table(
                MatchActionTable(
                    name=f"{self.binding.name}.split_store[{slot.block_index}]",
                    match=self._match_store_pass(pass_number),
                    action=self._make_store_action(array, parks=slot.block_index == 0),
                    match_bits=17,
                    vliw_slots=1,
                    ingress_ports=self._ingress_ports,
                )
            )

    # ------------------------------------------------------------------ #
    # Match predicates
    # ------------------------------------------------------------------ #

    # The predicates below are flat (no helper-call chains) because they
    # run for every packet on every pass; they read exactly the same
    # fields the original nested helpers did.

    def _match_split_ingress(self, ctx: PipelinePacket) -> bool:
        return ctx.ingress_port in self._ingress_ports and ctx.recirculations == 0

    def _match_split_candidate(self, ctx: PipelinePacket) -> bool:
        """Packets worth splitting: enabled port, big enough payload."""
        return (
            ctx.ingress_port in self._ingress_ports
            and ctx.recirculations == 0
            and len(ctx.packet.payload) >= self.config.min_split_payload
        )

    def _match_store_pass(self, pass_number: int):
        ingress_ports = self._ingress_ports

        def match(ctx: PipelinePacket) -> bool:
            pp = ctx.packet.pp
            return (
                ctx.recirculations == pass_number
                and ctx.ingress_port in ingress_ports
                and pp is not None
                and pp.enb == 1
            )

        return match

    def _match_recirculation_request(self, ctx: PipelinePacket) -> bool:
        pp = ctx.packet.pp
        return (
            ctx.recirculations == 0
            and ctx.ingress_port in self._ingress_ports
            and pp is not None
            and pp.enb == 1
        )

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #

    def _action_tag(self, ctx: PipelinePacket) -> None:
        """Stage-1 action: advance the tagger and stash the tag in metadata."""
        tag = self.tagger.next_tag(ctx)
        ctx.meta[META_TAG_TBL_IDX] = tag.tbl_idx
        ctx.meta[META_TAG_CLK] = tag.clk

    def _action_probe(self, ctx: PipelinePacket) -> None:
        """Stage-2 action: probe the metadata table and add the header."""
        packet = ctx.packet
        if META_TAG_TBL_IDX not in ctx.meta:
            # The tagger did not run: the payload is too small to park.
            self.counters.split_disabled_small_payload += 1
            packet.pp = PayloadParkHeader.disabled()
            return

        tbl_idx = ctx.meta[META_TAG_TBL_IDX]
        clk = ctx.meta[META_TAG_CLK]
        probe = self.lookup.probe_and_claim(
            ctx, tbl_idx, clk, max_exp=self.config.expiry_threshold
        )
        recorder = self.obs_recorder
        if probe.evicted:
            self.counters.evictions += 1
            if recorder is not None:
                recorder.slot_evicted(self.binding.name, tbl_idx)
        if not probe.claimed:
            self.counters.split_disabled_table_occupied += 1
            packet.pp = PayloadParkHeader.disabled()
            return

        parked_len = min(self.config.parked_bytes, packet.payload_length)
        parked_payload = packet.park_leading_payload(parked_len)
        ctx.meta[META_PARKED_PAYLOAD] = parked_payload
        packet.pp = PayloadParkHeader(
            enb=1, op=OP_MERGE, tbl_idx=tbl_idx, clk=clk
        ).seal()
        self.counters.splits += 1
        if recorder is not None:
            recorder.payload_parked(
                self.binding.name, tbl_idx, clk, packet.meta.get("obs_pkt")
            )

    def _make_store_action(self, array, parks: bool):
        payloads = self.lookup.payloads

        def action(ctx: PipelinePacket) -> None:
            parked_payload: Optional[bytes] = ctx.meta.get(META_PARKED_PAYLOAD)
            if parked_payload is None:
                return
            index = ctx.packet.pp.tbl_idx
            array.read(ctx, index)  # the block's stateful access this pass
            if parks:
                payloads[index] = parked_payload

        return action

    # ------------------------------------------------------------------ #
    # Port plan
    # ------------------------------------------------------------------ #

    def compile_plan(self, recirculation_ns: int) -> PortPlan:
        """Fuse the Split tables into the kernel for one of this binding's
        traffic ports.

        The kernel takes the packet through Algorithm 1 in one function:
        it reads and writes the same registers as the tables above, in
        the same order, and leaves the same header, counters, payload
        row and recorder calls behind.  A parked payload is one store
        into the lookup table's payload row; the block tables' accesses
        move no bytes, so the kernel, which is not guarded, skips them.  A packet is not tagged (payload too
        small), finds its slot occupied, or is parked — in two passes
        when the parked bytes need the recirculation, owing
        *recirculation_ns* for the second — and leaves for the binding's
        NF port: the kernel returns that egress decision, never a
        :class:`PipelinePacket`.

        The kernel's records are built in place — ``object.__new__``,
        then every field stored in declaration order — rather than by
        their dataclass constructors: the packet's one header (all zero
        unless parked, a parked tag's CRC read from the memo
        :data:`~repro.core.header.TAG_CRCS` or computed by
        :func:`~repro.core.header.tag_crc` on a miss) and the
        :class:`~repro.core.lookup_table.MetadataEntry` written back
        (frozen, so through ``object.__setattr__`` as its ``__init__``
        does).  That gives the validating constructors' records: the tag
        fields are in range by declaration — ``tbl_idx < table_entries
        <= 0xFFFF`` is checked at install, ``clk < clock_max <= 2**16``
        by ``PayloadParkConfig``.
        """
        config, counters, name = self.config, self.counters, self.binding.name
        nf_port = self.binding.nf_port
        idx_cell, clk_cell = self.tagger.cells()
        table_entries, clock_max = self.tagger.table_entries, self.tagger.clock_max
        metadata = self.lookup.metadata.storage
        payloads = self.lookup.payloads
        to_nf = (nf_port, 0, None)
        parked_to_nf = (
            (nf_port, recirculation_ns, None) if self.lookup.uses_second_pass else to_nf
        )
        new, set_frozen = object.__new__, object.__setattr__
        tag_crcs, clk_bits = TAG_CRCS, TAG_CLK_BITS

        def split(packet, ingress_port: int) -> Decision:
            # The header's tag fields: all zero (ENB=0) unless parked.
            enb = tag_idx = tag_clk = crc = 0
            if len(packet.payload) < config.min_split_payload:
                counters.split_disabled_small_payload += 1
            else:
                tbl_idx = idx_cell[0] = (idx_cell[0] + 1) % table_entries
                clk = clk_cell[0] = (clk_cell[0] + 1) % clock_max
                entry = metadata[tbl_idx]
                slot = new(MetadataEntry)
                if entry.exp > 1:
                    set_frozen(slot, "clk", entry.clk)
                    set_frozen(slot, "exp", entry.exp - 1)
                    metadata[tbl_idx] = slot
                    counters.split_disabled_table_occupied += 1
                else:
                    set_frozen(slot, "clk", clk)
                    set_frozen(slot, "exp", config.expiry_threshold)
                    metadata[tbl_idx] = slot
                    recorder = self.obs_recorder
                    if entry.exp == 1:
                        counters.evictions += 1
                        if recorder is not None:
                            recorder.slot_evicted(name, tbl_idx)
                    payload = packet.park_leading_payload(
                        min(config.parked_bytes, len(packet.payload))
                    )
                    crc = tag_crcs.get((tbl_idx << clk_bits) | clk)
                    if crc is None:
                        crc = tag_crc(tbl_idx, clk)
                    enb, tag_idx, tag_clk = 1, tbl_idx, clk
                    counters.splits += 1
                    if recorder is not None:
                        recorder.payload_parked(
                            name, tbl_idx, clk, packet.meta.get("obs_pkt")
                        )
                    payloads[tbl_idx] = payload
            header = packet.pp = new(PayloadParkHeader)
            header.enb = enb
            header.op = OP_MERGE
            header.tbl_idx = tag_idx
            header.clk = tag_clk
            header.crc = crc
            return parked_to_nf if enb else to_nf

        return split
