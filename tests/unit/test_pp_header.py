"""Unit tests for the PayloadPark header, counters and configuration."""

import math
import struct

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.counters import CounterBank, PayloadParkCounters
from repro.core.header import OP_EXPLICIT_DROP, OP_MERGE, PayloadParkHeader, tag_crc
from repro.packet.crc import crc16
from repro.errors import PayloadParkConfigError


class TestPayloadParkHeader:
    def test_wire_length_is_seven_bytes(self):
        header = PayloadParkHeader(enb=1, tbl_idx=10, clk=20).seal()
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

    def test_tag_crc_covers_index_and_clock(self):
        assert tag_crc(7, 9) == crc16(struct.pack("!HH", 7, 9))
        assert PayloadParkHeader(enb=1, tbl_idx=7, clk=9).seal().crc == tag_crc(7, 9)
        with pytest.raises(struct.error):
            tag_crc(1 << 16, 0)
        with pytest.raises(struct.error):
            tag_crc(0, -1)

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
    def test_outstanding_payloads(self):
        counters = PayloadParkCounters(
            splits=10, merges=6, evictions=1, explicit_drops=1,
            split_disabled_small_payload=3, split_disabled_table_occupied=2,
        )
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
    def test_recirculation_constructor(self):
        config = PayloadParkConfig.with_recirculation()
        assert config.parked_bytes == 384
        assert config.enable_recirculation

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

    #: Field values that once ran: failing mid-run (a TypeError, or the
    #: 65,537th split's out-of-range clock), or silently, reporting numbers.
    @pytest.mark.parametrize("field,value", [
        ("clock_max", 70_000),
        ("clock_max", 2.5),
        ("payload_block_bytes", 16.5),
        ("expiry_threshold", 1.5),
        ("expiry_threshold", math.nan),
        ("min_split_payload", math.nan),
        ("parked_bytes", 160.0),
        ("table_entries", 0x10000),
        ("table_entries", 12.0),
        ("sram_fraction", math.nan),
        ("sram_fraction", "0.26"),
    ])
    def test_out_of_domain_fields_fail_at_declaration(self, field, value):
        with pytest.raises(PayloadParkConfigError, match=f"^{field} must be"):
            PayloadParkConfig(**{field: value})


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
