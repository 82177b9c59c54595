"""Unit tests for the PayloadPark header, counters and configuration."""

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.counters import CounterBank, PayloadParkCounters
from repro.core.header import OP_EXPLICIT_DROP, OP_MERGE, PayloadParkHeader


class TestPayloadParkHeader:
    def test_wire_length_is_seven_bytes(self):
        header = PayloadParkHeader(enb=1, tbl_idx=10, clk=20).seal()
        assert header.byte_length() == 7
        assert len(header.to_bytes()) == 7

    def test_round_trip(self):
        header = PayloadParkHeader(enb=1, op=OP_EXPLICIT_DROP, tbl_idx=511, clk=42).seal()
        parsed = PayloadParkHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_crc_validates_tag(self):
        header = PayloadParkHeader(enb=1, tbl_idx=7, clk=9).seal()
        assert header.tag_is_valid()
        header.tbl_idx = 8
        assert not header.tag_is_valid()

    def test_disabled_header_is_all_zero(self):
        header = PayloadParkHeader.disabled()
        assert header.enb == 0
        assert header.to_bytes() == b"\x00" * 7

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            PayloadParkHeader(enb=2)
        with pytest.raises(ValueError):
            PayloadParkHeader(tbl_idx=1 << 16)
        with pytest.raises(ValueError):
            PayloadParkHeader(clk=-1)

    def test_from_bytes_rejects_short_input(self):
        with pytest.raises(ValueError):
            PayloadParkHeader.from_bytes(b"\x00" * 6)

    def test_copy_is_independent(self):
        header = PayloadParkHeader(enb=1, tbl_idx=1, clk=2).seal()
        clone = header.copy()
        clone.op = OP_EXPLICIT_DROP
        assert header.op == OP_MERGE


class TestCounters:
    def test_split_attempts_and_outstanding(self):
        counters = PayloadParkCounters(
            splits=10, merges=6, evictions=1, explicit_drops=1,
            split_disabled_small_payload=3, split_disabled_table_occupied=2,
        )
        assert counters.split_attempts == 15
        assert counters.outstanding_payloads == 2

    def test_counter_bank_aggregation(self):
        bank = CounterBank()
        bank.for_binding("a").splits = 4
        bank.for_binding("b").splits = 6
        bank.for_binding("b").premature_evictions = 1
        total = bank.total()
        assert total.splits == 10
        assert total.premature_evictions == 1


class TestConfig:
    def test_payload_blocks_rounds_up(self):
        config = PayloadParkConfig(parked_bytes=170, payload_block_bytes=16)
        assert config.payload_blocks == 11

    def test_recirculation_constructor(self):
        config = PayloadParkConfig.with_recirculation()
        assert config.parked_bytes == 384
        assert config.enable_recirculation
        assert config.requires_recirculation(payload_stage_count=10)

    def test_default_does_not_require_recirculation(self):
        config = PayloadParkConfig()
        assert not config.requires_recirculation(payload_stage_count=10)

    def test_derived_table_entries_scale_with_fraction_and_share(self):
        config = PayloadParkConfig(sram_fraction=0.5, payload_block_bytes=16)
        full = config.derived_table_entries(stage_sram_bytes=32_768)
        half = config.derived_table_entries(stage_sram_bytes=32_768, memory_weight_share=0.5)
        assert full == 1024
        assert half == 512

    def test_explicit_table_entries_override(self):
        config = PayloadParkConfig(table_entries=100)
        assert config.derived_table_entries(stage_sram_bytes=32_768) == 100

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PayloadParkConfig(expiry_threshold=0)
        with pytest.raises(ValueError):
            PayloadParkConfig(sram_fraction=0.0)
        with pytest.raises(ValueError):
            PayloadParkConfig(parked_bytes=0)
        with pytest.raises(ValueError):
            PayloadParkConfig(table_entries=-1)


class TestBinding:
    def test_binding_validation(self):
        with pytest.raises(ValueError):
            NfServerBinding(name="x", ingress_ports=(), nf_port=2, default_egress_port=0)
        with pytest.raises(ValueError):
            NfServerBinding(name="x", ingress_ports=(2,), nf_port=2, default_egress_port=0)
        with pytest.raises(ValueError):
            NfServerBinding(
                name="x", ingress_ports=(0,), nf_port=2, default_egress_port=0, memory_weight=0
            )
