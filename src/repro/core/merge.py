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
* **Stages 3..N**: the payload blocks are read back and cleared; when
  the parked size spans two passes the packet recirculates to collect
  the second pass's blocks.  Each block's table makes its array's
  stateful access; the first takes the whole payload out of the lookup
  table's payload row and leaves the row empty.  The deparser prepends
  it to the packet's payload.

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
from repro.switchsim.pipeline import Decision, Pipeline, PortPlan

#: Metadata keys used to pass information between Merge stages.
META_IS_PP_ENB = "merge.is_pp_enb"
META_MERGE_TBL_IDX = "merge.tbl_idx"
META_MERGE_PAYLOAD = "merge.payload"

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
                    action=self._make_load_action(array, takes=slot.block_index == 0),
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
            ctx.drop("payloadpark-premature-eviction")
            return

        if header.op == OP_EXPLICIT_DROP:
            # The NF framework told us it dropped the packet: the slot is
            # reclaimed (above) and the notification itself goes no further.
            self.counters.explicit_drops += 1
            ctx.packet.pp = None
            ctx.drop("payloadpark-explicit-drop")
            return

        ctx.meta[META_IS_PP_ENB] = 1
        ctx.meta[META_MERGE_TBL_IDX] = header.tbl_idx
        ctx.packet.pp = None
        self.counters.merges += 1

    def _make_load_action(self, array, takes: bool):
        payloads = self.lookup.payloads

        def action(ctx: PipelinePacket) -> None:
            index = ctx.meta[META_MERGE_TBL_IDX]
            array.read(ctx, index)  # the block's stateful access this pass
            if takes:
                ctx.meta[META_MERGE_PAYLOAD] = payloads[index]
                payloads[index] = b""

        return action

    # ------------------------------------------------------------------ #
    # Deparser hook
    # ------------------------------------------------------------------ #

    def deparse(self, ctx: PipelinePacket) -> None:
        """Prepend the payload taken from the row once the last pass is done.

        Called from the program's deparser hook after every pass of a
        packet from this binding's NF port.  The restore is skipped while
        another pass is pending, so it happens once, after the last.
        """
        if ctx.meta.get(META_IS_PP_ENB) != 1 or ctx.dropped:
            return
        if ctx.recirculate_requested:
            return
        ctx.packet.restore_leading_payload(ctx.meta[META_MERGE_PAYLOAD])

    # ------------------------------------------------------------------ #
    # Port plan
    # ------------------------------------------------------------------ #

    def compile_plan(self, l2: L2ForwardingTable, recirculation_ns: int) -> PortPlan:
        """Fuse the Merge tables into the kernel for this binding's NF port.

        The kernel takes the packet through Algorithm 2 in one function,
        on the same registers and payload row as the tables above and
        with the same header, counters and drop reasons.
        A merged payload is one read and one clear of the row; the block
        tables' accesses move no bytes, so the kernel, which is not
        guarded, skips them.  A packet has no usable header, has ENB=0,
        is dropped by the validate table, or is merged — in two passes when the parked bytes needed the
        recirculation, owing *recirculation_ns* for the second.  Every
        packet not dropped is forwarded by destination MAC from *l2*, the
        binding's default egress on a miss.  The kernel returns that
        egress decision (a dropped packet's is ``(None, 0, reason)``),
        never a :class:`PipelinePacket`.  The tag is checked against its
        memoized CRC (:data:`~repro.core.header.TAG_CRCS`), computed by
        :func:`~repro.core.header.tag_crc` when the memo does not hold it.
        """
        counters = self.counters
        default_egress = self.binding.default_egress_port
        entries = self.lookup.entries
        metadata = self.lookup.metadata.storage
        free = MetadataEntry()
        payloads = self.lookup.payloads
        merged_owes = recirculation_ns if self.lookup.uses_second_pass else 0
        corrupt = (None, 0, "payloadpark-tag-corrupt")
        out_of_range = (None, 0, "payloadpark-tag-out-of-range")
        evicted = (None, 0, "payloadpark-premature-eviction")
        explicit_drop = (None, 0, "payloadpark-explicit-drop")
        tag_crcs, clk_bits = TAG_CRCS, TAG_CLK_BITS

        def merge(packet, ingress_port: int) -> Decision:
            header = packet.pp
            enb = None if header is None else header.enb
            owed = 0
            if enb == 0:
                packet.pp = None
                counters.merge_enb_zero += 1
            elif enb == 1:
                tbl_idx = header.tbl_idx
                crc = tag_crcs.get((tbl_idx << clk_bits) | header.clk)
                if crc is None:
                    crc = tag_crc(tbl_idx, header.clk)
                if header.crc != crc:
                    counters.tag_validation_failures += 1
                    return corrupt
                if not 0 <= tbl_idx < entries:
                    counters.tag_validation_failures += 1
                    return out_of_range
                entry = metadata[tbl_idx]
                if entry.exp <= 0 or entry.clk != header.clk:
                    counters.premature_evictions += 1
                    return evicted
                metadata[tbl_idx] = free
                packet.pp = None
                if header.op == OP_EXPLICIT_DROP:
                    counters.explicit_drops += 1
                    return explicit_drop
                counters.merges += 1
                payload = payloads[tbl_idx]
                payloads[tbl_idx] = b""
                owed = merged_owes
                packet.restore_leading_payload(payload)
            return l2.lookup(packet.eth.dst, default_egress), owed, None

        return merge
