"""The Merge operation (Algorithm 2), expressed as match-action tables.

Merge runs on packets arriving from the NF server:

* **Stage 1**: packets whose Split was disabled (ENB=0) just have the
  PayloadPark header removed; nothing was parked for them.
* **Stage 2**: packets with ENB=1 are validated — the tag CRC must check
  out and the generation clock in the header must match the one stored
  in the metadata table.  A match frees the slot and flags the packet
  for payload restoration; a mismatch means the payload was prematurely
  evicted, so the packet is dropped and counted.  Explicit Drop requests
  (OP=1) reclaim the slot and then drop the packet — they are a
  memory-release notification, not user traffic.
* **Stages 3..N**: each payload block is read back (and cleared) from
  its register array; when the parked size spans two passes the packet
  recirculates to collect the second pass's blocks.  The deparser
  prepends the collected bytes to the packet's payload.

The tables are the reference.  :meth:`MergePath.compile_plan` fuses them
into the one kernel the NF port runs by default.
"""

from __future__ import annotations


from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.counters import PayloadParkCounters
from repro.core.header import OP_EXPLICIT_DROP, TAG_CLK_BITS, TAG_CRCS, tag_crc
from repro.core.l2fwd import L2ForwardingTable
from repro.core.lookup_table import METADATA_STAGE, LookupTable, MetadataEntry
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipeline import Pipeline, PortPlan

#: Metadata keys used to pass information between Merge stages.
META_IS_PP_ENB = "merge.is_pp_enb"
META_MERGE_TBL_IDX = "merge.tbl_idx"
META_MERGE_BLOCKS = "merge.blocks"

#: Algorithm 2's Stage 1 and Stage 2, as 0-indexed pipeline stages; the
#: validation runs in the stage that holds the metadata array it checks.
ENB_ZERO_STAGE = 0
VALIDATE_STAGE = METADATA_STAGE


class MergePath:
    """Installs and implements the Merge tables for one NF-server binding."""

    def __init__(
        self,
        binding: NfServerBinding,
        config: PayloadParkConfig,
        pipeline: Pipeline,
        lookup: LookupTable,
        counters: PayloadParkCounters,
    ) -> None:
        self.binding = binding
        self.config = config
        self.pipeline = pipeline
        self.lookup = lookup
        self.counters = counters
        self._nf_ports = frozenset((binding.nf_port,))
        #: Flight-recorder hook (repro.obs); None keeps the path lean.
        self.obs_recorder = None

    # ------------------------------------------------------------------ #
    # Table installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Create the Merge MATs and place them into their stages."""
        self.pipeline.stage(ENB_ZERO_STAGE).add_table(
            MatchActionTable(
                name=f"{self.binding.name}.merge_enb_zero",
                match=self._match_enb_zero,
                action=self._action_remove_header,
                match_bits=17,
                vliw_slots=1,
                ingress_ports=self._nf_ports,
            )
        )
        self.pipeline.stage(VALIDATE_STAGE).add_table(
            MatchActionTable(
                name=f"{self.binding.name}.merge_validate",
                match=self._match_enb_one,
                action=self._action_validate,
                match_bits=17,
                vliw_slots=4,
                ingress_ports=self._nf_ports,
            )
        )
        self._install_loads(0)
        if self.lookup.uses_second_pass:
            last_stage = self.pipeline.stage_count - 1
            self.pipeline.stage(last_stage).add_table(
                MatchActionTable(
                    name=f"{self.binding.name}.merge_recirculate",
                    match=self._match_recirculation_request,
                    action=lambda ctx: ctx.request_recirculation(),
                    match_bits=17,
                    vliw_slots=1,
                    ingress_ports=self._nf_ports,
                )
            )
            self._install_loads(1)

    def _install_loads(self, pass_number: int) -> None:
        for slot, array in self.lookup.blocks_for_pass(pass_number):
            self.pipeline.stage(slot.stage_index).add_table(
                MatchActionTable(
                    name=f"{self.binding.name}.merge_load[{slot.block_index}]",
                    match=self._match_load_pass(pass_number),
                    action=self._make_load_action(slot, array),
                    match_bits=17,
                    vliw_slots=1,
                    ingress_ports=self._nf_ports,
                )
            )

    # ------------------------------------------------------------------ #
    # Match predicates
    # ------------------------------------------------------------------ #

    # Flat predicates (no helper-call chains): they run for every packet
    # on every pass and read the same fields the nested helpers did.

    def _match_enb_zero(self, ctx: PipelinePacket) -> bool:
        pp = ctx.packet.pp
        return (
            ctx.ingress_port == self.binding.nf_port
            and ctx.recirculations == 0
            and pp is not None
            and pp.enb == 0
        )

    def _match_enb_one(self, ctx: PipelinePacket) -> bool:
        pp = ctx.packet.pp
        return (
            ctx.ingress_port == self.binding.nf_port
            and ctx.recirculations == 0
            and pp is not None
            and pp.enb == 1
        )

    def _match_load_pass(self, pass_number: int):
        nf_port = self.binding.nf_port

        def match(ctx: PipelinePacket) -> bool:
            return (
                ctx.recirculations == pass_number
                and ctx.ingress_port == nf_port
                and ctx.meta.get(META_IS_PP_ENB) == 1
            )

        return match

    def _match_recirculation_request(self, ctx: PipelinePacket) -> bool:
        return (
            ctx.recirculations == 0
            and ctx.ingress_port == self.binding.nf_port
            and ctx.meta.get(META_IS_PP_ENB) == 1
        )

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #

    def _action_remove_header(self, ctx: PipelinePacket) -> None:
        """ENB=0: nothing was parked, simply strip the PayloadPark header."""
        ctx.packet.pp = None
        self.counters.merge_enb_zero += 1

    def _action_validate(self, ctx: PipelinePacket) -> None:
        """Validate the tag, reclaim the slot and flag the payload restore."""
        header = ctx.packet.pp
        recorder = self.obs_recorder
        if not header.tag_is_valid():
            self.counters.tag_validation_failures += 1
            ctx.drop("payloadpark-tag-corrupt")
            return
        if not 0 <= header.tbl_idx < self.lookup.entries:
            # The CRC is no secret: a well-formed tag can still name a
            # slot this table does not have.
            self.counters.tag_validation_failures += 1
            ctx.drop("payloadpark-tag-out-of-range")
            return

        result = self.lookup.validate_and_release(ctx, header.tbl_idx, header.clk)
        if not result.valid:
            self.counters.premature_evictions += 1
            if recorder is not None:
                recorder.premature_eviction(
                    self.binding.name, header.tbl_idx,
                    ctx.packet.meta.get("obs_pkt"),
                )
            ctx.drop("payloadpark-premature-eviction")
            return

        if header.op == OP_EXPLICIT_DROP:
            # The NF framework told us it dropped the packet: the slot is
            # reclaimed (above) and the notification itself goes no further.
            self.counters.explicit_drops += 1
            if recorder is not None:
                recorder.slot_released(
                    self.binding.name, header.tbl_idx, "explicit-drop"
                )
            ctx.packet.pp = None
            ctx.drop("payloadpark-explicit-drop")
            return

        ctx.meta[META_IS_PP_ENB] = 1
        ctx.meta[META_MERGE_TBL_IDX] = header.tbl_idx
        ctx.meta[META_MERGE_BLOCKS] = {}
        ctx.packet.pp = None
        self.counters.merges += 1
        if recorder is not None:
            recorder.slot_merged(self.binding.name, header.tbl_idx)

    def _make_load_action(self, slot, array):
        def action(ctx: PipelinePacket) -> None:
            index = ctx.meta[META_MERGE_TBL_IDX]
            block = self.lookup.load_and_clear_block(ctx, array, index)
            ctx.meta[META_MERGE_BLOCKS][slot.block_index] = block

        return action

    # ------------------------------------------------------------------ #
    # Deparser hook
    # ------------------------------------------------------------------ #

    def deparse(self, ctx: PipelinePacket) -> None:
        """Prepend the collected payload blocks once the last pass is done.

        Called from the program's deparser hook after every pass of a
        packet from this binding's NF port.  The restore is skipped while
        another pass is pending, so it happens once, after the last.
        """
        if ctx.meta.get(META_IS_PP_ENB) != 1 or ctx.dropped:
            return
        if ctx.recirculate_requested:
            return
        blocks = ctx.meta.get(META_MERGE_BLOCKS, {})
        payload = b"".join(blocks[i] for i in sorted(blocks))
        ctx.packet.restore_leading_payload(payload)

    # ------------------------------------------------------------------ #
    # Port plan
    # ------------------------------------------------------------------ #

    def compile_plan(self, l2: L2ForwardingTable) -> PortPlan:
        """Fuse the Merge tables into the kernel for this binding's NF port.

        The kernel takes the packet through Algorithm 2 in one function,
        on the same registers as the tables above and with the same
        header, counters, drop reasons and recorder calls.  A packet has
        no usable header, has ENB=0, is dropped by the validate table,
        or is merged — in two passes when the parked bytes needed the
        recirculation.  Every packet not dropped is forwarded by
        destination MAC from *l2*, the binding's default egress on a miss.
        The tag is checked against its memoized CRC
        (:data:`~repro.core.header.TAG_CRCS`), computed by
        :func:`~repro.core.header.tag_crc` when the memo does not hold it.
        The returned :class:`PipelinePacket` is built in place, every
        field stored in declaration order, as split's is.
        """
        counters, name = self.counters, self.binding.name
        default_egress = self.binding.default_egress_port
        entries = self.lookup.entries
        metadata = self.lookup.metadata.storage
        free = MetadataEntry()
        block_cells = [cells for cells, _start, _end in self.lookup.block_cells()]
        second_pass = 1 if self.lookup.uses_second_pass else 0
        tag_crcs, clk_bits = TAG_CRCS, TAG_CLK_BITS
        new = object.__new__

        def merge(packet, ingress_port: int) -> PipelinePacket:
            header = packet.pp
            enb = None if header is None else header.enb
            recirculations = 0
            reason = None
            if enb == 0:
                packet.pp = None
                counters.merge_enb_zero += 1
            elif enb == 1:
                tbl_idx = header.tbl_idx
                recorder = self.obs_recorder
                crc = tag_crcs.get((tbl_idx << clk_bits) | header.clk)
                if crc is None:
                    crc = tag_crc(tbl_idx, header.clk)
                if header.crc != crc:
                    counters.tag_validation_failures += 1
                    reason = "payloadpark-tag-corrupt"
                elif not 0 <= tbl_idx < entries:
                    counters.tag_validation_failures += 1
                    reason = "payloadpark-tag-out-of-range"
                elif (entry := metadata[tbl_idx]).exp <= 0 or entry.clk != header.clk:
                    counters.premature_evictions += 1
                    if recorder is not None:
                        recorder.premature_eviction(
                            name, tbl_idx, packet.meta.get("obs_pkt")
                        )
                    reason = "payloadpark-premature-eviction"
                else:
                    metadata[tbl_idx] = free
                    packet.pp = None
                    if header.op == OP_EXPLICIT_DROP:
                        counters.explicit_drops += 1
                        if recorder is not None:
                            recorder.slot_released(name, tbl_idx, "explicit-drop")
                        reason = "payloadpark-explicit-drop"
                    else:
                        counters.merges += 1
                        if recorder is not None:
                            recorder.slot_merged(name, tbl_idx)
                        blocks = []
                        for cells in block_cells:
                            blocks.append(cells[tbl_idx])
                            cells[tbl_idx] = b""
                        recirculations = second_pass
                        packet.restore_leading_payload(b"".join(blocks))
            ctx = new(PipelinePacket)
            ctx.packet = packet
            ctx.ingress_port = ingress_port
            ctx.meta = {}
            if reason is None:
                ctx.egress_port = l2.lookup(packet.eth.dst, default_egress)
                ctx.dropped = False
                ctx.drop_reason = ""
            else:
                ctx.egress_port = None
                ctx.dropped = True
                ctx.drop_reason = reason
            ctx.recirculations = recirculations
            ctx.recirculate_requested = False
            ctx.register_reads = None
            ctx.register_writes = None
            return ctx

        return PortPlan(self.pipeline, merge)
