"""Unit tests for the PayloadPark and baseline switch programs."""

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.header import OP_EXPLICIT_DROP, PayloadParkHeader
from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet
from repro.switchsim.pipe import Pipe


def _binding(name="srv0", base=0):
    return NfServerBinding(
        name=name,
        ingress_ports=(base, base + 1),
        nf_port=base + 2,
        default_egress_port=base,
    )


def _program(**config_kwargs):
    config = PayloadParkConfig(**config_kwargs)
    return PayloadParkProgram(config, bindings=[_binding()])


class TestBaselineProgram:
    def test_forwards_traffic_to_nf_port(self):
        program = BaselineProgram([_binding()])
        packet = Packet.udp(total_size=500)
        assert program.process(packet, ingress_port=0) == (2, 0, None)
        assert packet.wire_length == 500  # untouched

    def test_forwards_nf_traffic_to_default_egress(self):
        program = BaselineProgram([_binding()])
        assert program.process(Packet.udp(total_size=500), ingress_port=2) == (0, 0, None)

    def test_l2_entry_overrides_default_egress(self):
        program = BaselineProgram([_binding()])
        program.add_l2_entry("02:00:00:00:00:02", 1)
        assert program.process(Packet.udp(total_size=500), ingress_port=2) == (1, 0, None)

    def test_requires_at_least_one_binding(self):
        with pytest.raises(ValueError):
            BaselineProgram([])


class TestBindingValidation:
    def test_ports_must_share_pipe(self):
        bad = NfServerBinding(
            name="bad", ingress_ports=(0, 1), nf_port=20, default_egress_port=0
        )
        with pytest.raises(ValueError):
            BaselineProgram([bad])

    def test_port_reuse_across_bindings_rejected(self):
        first = _binding("a", base=0)
        overlapping = NfServerBinding(
            name="b", ingress_ports=(2, 3), nf_port=5, default_egress_port=2
        )
        with pytest.raises(ValueError):
            BaselineProgram([first, overlapping])


class TestSplitMergeRoundTrip:
    def test_split_truncates_and_merge_restores(self):
        program = _program()
        packet = Packet.udp(total_size=512)
        original = packet.to_bytes()

        assert program.process(packet, ingress_port=0) == (2, 0, None)
        assert packet.pp is not None and packet.pp.enb == 1
        assert packet.wire_length == 512 - 160 + 7

        assert program.process(packet, ingress_port=2) == (0, 0, None)
        assert packet.pp is None
        assert packet.to_bytes() == original
        counters = program.counters_for()
        assert counters.splits == 1 and counters.merges == 1
        assert program.lookup_table().occupancy() == 0

    def test_small_payload_not_split_but_gets_header(self):
        program = _program()
        packet = Packet.udp(total_size=128)  # payload 86 < 160
        program.process(packet, ingress_port=0)
        assert packet.pp is not None and packet.pp.enb == 0
        assert packet.wire_length == 128 + 7
        assert program.counters_for().split_disabled_small_payload == 1

        program.process(packet, ingress_port=2)
        assert packet.pp is None
        assert packet.wire_length == 128
        assert program.counters_for().merge_enb_zero == 1

    def test_min_split_payload_above_every_payload_is_a_header_only_run(self):
        program = _program(min_split_payload=100_000)
        packet = Packet.udp(total_size=1500)
        program.process(packet, ingress_port=0)
        assert packet.pp is not None and packet.pp.enb == 0
        assert packet.wire_length == 1500 + 7
        assert program.counters_for().splits == 0
        assert program.lookup_table().occupancy() == 0

    def test_header_survives_nf_header_rewrites(self):
        program = _program()
        packet = Packet.udp(total_size=512)
        payload_before = bytes(packet.payload)
        program.process(packet, ingress_port=0)
        # The NF rewrites addresses and ports; the tag must still find the payload.
        packet.eth.swap_addresses()
        packet.ip.ttl -= 1
        packet.l4.src_port = 9999
        program.process(packet, ingress_port=2)
        assert packet.payload == payload_before

    def test_full_table_falls_back_to_disabled_split(self):
        # With a conservative expiry threshold, wrapping back onto occupied
        # slots decrements the threshold instead of evicting, so the third
        # packet cannot be parked and falls back to non-PayloadPark mode.
        program = _program(table_entries=2, expiry_threshold=2)
        packets = [Packet.udp(total_size=512) for _ in range(3)]
        for packet in packets:
            program.process(packet, ingress_port=0)
        counters = program.counters_for()
        assert counters.splits == 2
        assert counters.split_disabled_table_occupied == 1
        assert counters.evictions == 0
        assert packets[2].pp.enb == 0

    def test_eviction_and_premature_eviction_detection(self):
        program = _program(table_entries=1, expiry_threshold=1)
        first = Packet.udp(total_size=512)
        second = Packet.udp(total_size=512)
        program.process(first, ingress_port=0)
        # The second packet wraps the 1-entry table, evicting the first payload.
        program.process(second, ingress_port=0)
        assert program.counters_for().evictions == 1
        # The first packet now returns: its payload is gone.
        decision = program.process(first, ingress_port=2)
        assert decision == (None, 0, "payloadpark-premature-eviction")
        assert program.counters_for().premature_evictions == 1
        # The second packet still merges fine.
        assert program.process(second, ingress_port=2) == (0, 0, None)
        assert program.counters_for().merges == 1

    def test_corrupted_tag_is_dropped(self):
        program = _program()
        packet = Packet.udp(total_size=512)
        program.process(packet, ingress_port=0)
        packet.pp.clk ^= 0x1  # corrupt the tag without fixing the CRC
        decision = program.process(packet, ingress_port=2)
        assert decision == (None, 0, "payloadpark-tag-corrupt")
        assert program.counters_for().tag_validation_failures == 1

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_valid_tag_past_the_table_is_dropped_not_raised(self, fast_path):
        # The CRC is no secret: anyone can seal a tag for a slot the
        # table does not have.  That is outside input, not a bug to raise.
        program = _program(table_entries=8)
        program.enable_fast_path(fast_path)
        packet = Packet.udp(total_size=512)
        packet.pp = PayloadParkHeader(enb=1, tbl_idx=60_000, clk=3).seal()
        decision = program.process(packet, ingress_port=2)
        assert decision == (None, 0, "payloadpark-tag-out-of-range")
        assert program.counters_for().tag_validation_failures == 1
        assert program.lookup_table().occupancy() == 0

    def test_explicit_drop_reclaims_slot_without_forwarding(self):
        # Merge honours OP=1 with no switch-side setting.
        program = _program()
        packet = Packet.udp(total_size=512)
        program.process(packet, ingress_port=0)
        assert program.lookup_table().occupancy() == 1
        # The NF framework decides to drop: truncate and set the opcode.
        packet.park_leading_payload(packet.payload_length)
        packet.pp.op = OP_EXPLICIT_DROP
        decision = program.process(packet, ingress_port=2)
        assert decision == (None, 0, "payloadpark-explicit-drop")
        assert program.counters_for().explicit_drops == 1
        assert program.lookup_table().occupancy() == 0


class TestRecirculation:
    def test_recirculation_parks_384_bytes(self):
        config = PayloadParkConfig.with_recirculation()
        program = PayloadParkProgram(config, bindings=[_binding()])
        packet = Packet.udp(total_size=1024)
        original = packet.to_bytes()

        program.process(packet, ingress_port=0)
        assert packet.wire_length == 1024 - 384 + 7

        program.process(packet, ingress_port=2)
        assert packet.to_bytes() == original

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_recirculation_latency_reported(self, fast_path):
        # One recirculation pass each way, owed on top of the switch's
        # forwarding latency; a packet too small to park owes nothing.
        config = PayloadParkConfig.with_recirculation()
        program = PayloadParkProgram(config, bindings=[_binding()])
        program.enable_fast_path(fast_path)
        owed = Pipe.RECIRCULATION_LATENCY_NS
        packet = Packet.udp(total_size=1024)
        assert program.process(packet, ingress_port=0) == (2, owed, None)
        assert program.process(packet, ingress_port=2) == (0, owed, None)
        small = Packet.udp(total_size=128)
        assert program.process(small, ingress_port=0) == (2, 0, None)
        assert program.process(small, ingress_port=2) == (0, 0, None)


class TestMultiBindingAndState:
    def test_memory_sliced_between_bindings_on_same_pipe(self):
        bindings = [_binding("a", base=0), _binding("b", base=4)]
        program = PayloadParkProgram(PayloadParkConfig(sram_fraction=0.4), bindings=bindings)
        solo = PayloadParkProgram(PayloadParkConfig(sram_fraction=0.4), bindings=[_binding()])
        assert program.lookup_tables["a"].entries == solo.lookup_table().entries // 2
        assert program.lookup_tables["a"].entries == program.lookup_tables["b"].entries

    def test_bindings_have_isolated_state(self):
        bindings = [_binding("a", base=0), _binding("b", base=4)]
        program = PayloadParkProgram(PayloadParkConfig(), bindings=bindings)
        packet = Packet.udp(total_size=512)
        program.process(packet, ingress_port=0)
        assert program.counters_for("a").splits == 1
        assert program.counters_for("b").splits == 0
        assert program.lookup_tables["a"].occupancy() == 1
        assert program.lookup_tables["b"].occupancy() == 0

    def test_lookup_table_requires_name_with_multiple_bindings(self):
        bindings = [_binding("a", base=0), _binding("b", base=4)]
        program = PayloadParkProgram(PayloadParkConfig(), bindings=bindings)
        with pytest.raises(ValueError):
            program.lookup_table()


class TestResourceReport:
    def test_sram_fraction_reflected_in_report(self):
        low = _program(sram_fraction=0.10).resource_report()
        high = _program(sram_fraction=0.30).resource_report()
        assert high.sram_peak_percent > low.sram_peak_percent

    def test_phv_within_budget(self):
        report = _program().resource_report()
        assert 0 < report.phv_percent <= 100
