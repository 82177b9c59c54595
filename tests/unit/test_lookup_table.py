"""Unit tests for the lookup table and the packet tagger."""

import pytest

from repro.core.lookup_table import LookupTable, MetadataEntry
from repro.core.tagger import PacketTagger
from repro.packet.packet import Packet
from repro.switchsim.context import PipelinePacket
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.registers import RegisterAccessError, RegisterArray


def _ctx():
    return PipelinePacket(packet=Packet.udp(total_size=512), ingress_port=0)


def _table(entries=8, parked=160, allow_second_pass=False, pipeline=None):
    pipeline = pipeline or Pipeline(stage_count=12)
    return LookupTable(
        name="t",
        pipeline=pipeline,
        entries=entries,
        parked_bytes=parked,
        allow_second_pass=allow_second_pass,
    )


class TestLayout:
    def test_single_pass_block_layout(self):
        table = _table(parked=160)
        assert len(table.block_slots) == 10
        assert all(slot.pass_number == 0 for slot in table.block_slots)
        assert {slot.stage_index for slot in table.block_slots} == set(range(2, 12))
        assert sum(slot.length for slot in table.block_slots) == 160

    def test_second_pass_layout_for_recirculation(self):
        table = _table(parked=384, allow_second_pass=True)
        assert table.uses_second_pass
        assert sum(slot.length for slot in table.block_slots) == 384
        second = [slot for slot in table.block_slots if slot.pass_number == 1]
        assert len(second) == 14

    def test_overflow_without_second_pass_rejected(self):
        with pytest.raises(ValueError):
            _table(parked=384, allow_second_pass=False)

    def test_entries_bounded_by_tag_width(self):
        with pytest.raises(ValueError):
            _table(entries=70_000)


class TestProbeAndClaim:
    def test_claim_free_slot(self):
        table = _table()
        result = table.probe_and_claim(_ctx(), index=0, clk=5, max_exp=1)
        assert result.claimed and not result.evicted
        assert table.peek_metadata(0) == MetadataEntry(clk=5, exp=1)
        assert table.occupancy() == 1

    def test_occupied_slot_decrements_and_rejects(self):
        table = _table()
        table.probe_and_claim(_ctx(), index=0, clk=5, max_exp=3)
        result = table.probe_and_claim(_ctx(), index=0, clk=6, max_exp=3)
        assert not result.claimed
        assert table.peek_metadata(0).exp == 2
        assert table.peek_metadata(0).clk == 5

    def test_eviction_when_threshold_expires(self):
        table = _table()
        table.probe_and_claim(_ctx(), index=0, clk=5, max_exp=1)
        result = table.probe_and_claim(_ctx(), index=0, clk=9, max_exp=1)
        assert result.claimed and result.evicted
        assert table.peek_metadata(0).clk == 9

    def test_expiry_threshold_controls_probes_until_eviction(self):
        table = _table()
        table.probe_and_claim(_ctx(), index=0, clk=1, max_exp=3)
        outcomes = [table.probe_and_claim(_ctx(), index=0, clk=2 + i, max_exp=3) for i in range(3)]
        assert [result.claimed for result in outcomes] == [False, False, True]
        assert outcomes[-1].evicted


class TestValidateAndRelease:
    def test_valid_release_frees_slot(self):
        table = _table()
        table.probe_and_claim(_ctx(), index=3, clk=7, max_exp=1)
        result = table.validate_and_release(_ctx(), index=3, clk=7)
        assert result.valid
        assert table.occupancy() == 0

    def test_clock_mismatch_detected(self):
        table = _table()
        table.probe_and_claim(_ctx(), index=3, clk=7, max_exp=1)
        result = table.validate_and_release(_ctx(), index=3, clk=8)
        assert not result.valid
        assert table.occupancy() == 1  # slot untouched

    def test_release_of_free_slot_fails(self):
        table = _table()
        assert not table.validate_and_release(_ctx(), index=0, clk=0).valid


class TestPayloadBlocks:
    def test_store_and_load_round_trip(self):
        table = _table()
        payload = bytes(range(160))
        table.probe_and_claim(_ctx(), index=2, clk=7, max_exp=1)
        table.payloads[2] = payload
        assert table.peek_payload(2) == payload
        assert table.validate_and_release(_ctx(), index=2, clk=7).valid
        # Merge takes the row; a release alone leaves the bytes as residue.
        assert table.peek_payload(2) == payload
        assert [table.peek_payload(i) for i in (0, 1, 3)] == [b""] * 3

    def test_short_payload_stores_exact_bytes(self):
        table = _table(parked=160)
        payload = b"x" * 100
        table.payloads[0] = payload
        assert table.peek_payload(0) == payload

    def test_blocks_are_layout_and_sram_not_storage(self):
        pipeline = Pipeline(stage_count=12)
        table = _table(entries=8, parked=384, allow_second_pass=True, pipeline=pipeline)
        assert [array.sram_bytes for array in table.block_arrays] == [
            8 * slot.length for slot in table.block_slots
        ]
        # SRAM is taken per block, but no block holds per-entry storage.
        assert pipeline.sram_bytes_used() == (
            table.metadata.sram_bytes + sum(a.sram_bytes for a in table.block_arrays)
        )
        assert not any(isinstance(a, RegisterArray) for a in table.block_arrays)
        assert not any(hasattr(a, "_values") for a in table.block_arrays)
        # The stage walk's access is still guarded: one per block per pass.
        ctx = _ctx()
        assert table.block_arrays[0].read(ctx, 5) is None
        with pytest.raises(RegisterAccessError):
            table.block_arrays[0].read(ctx, 5)
        with pytest.raises(IndexError):
            table.block_arrays[1].read(_ctx(), 8)

    def test_drain_slot_frees_metadata_and_row(self):
        table = _table()
        table.probe_and_claim(_ctx(), index=4, clk=3, max_exp=2)
        table.payloads[4] = b"parked"
        assert table.drain_slot(4)
        assert not table.peek_metadata(4).occupied
        assert table.peek_payload(4) == b""
        assert not table.drain_slot(4)  # a free slot is left alone


class TestPacketTagger:
    def test_tags_advance_and_wrap(self):
        pipeline = Pipeline(stage_count=12)
        tagger = PacketTagger("t", pipeline, table_entries=3, clock_max=4)
        tags = [tagger.next_tag(_ctx()) for _ in range(5)]
        assert [tag.tbl_idx for tag in tags] == [0, 1, 2, 0, 1]
        assert [tag.clk for tag in tags] == [0, 1, 2, 3, 0]

    def test_consecutive_packets_get_distinct_indices(self):
        pipeline = Pipeline(stage_count=12)
        tagger = PacketTagger("t", pipeline, table_entries=100)
        first = tagger.next_tag(_ctx())
        second = tagger.next_tag(_ctx())
        assert first.tbl_idx != second.tbl_idx

    def test_single_packet_cannot_tag_twice(self):
        from repro.switchsim.registers import RegisterAccessError

        pipeline = Pipeline(stage_count=12)
        tagger = PacketTagger("t", pipeline, table_entries=10)
        ctx = _ctx()
        tagger.next_tag(ctx)
        with pytest.raises(RegisterAccessError):
            tagger.next_tag(ctx)

    def test_invalid_parameters_rejected(self):
        pipeline = Pipeline(stage_count=12)
        with pytest.raises(ValueError):
            PacketTagger("t", pipeline, table_entries=0)
        with pytest.raises(ValueError):
            PacketTagger("t", pipeline, table_entries=4, clock_max=1)
