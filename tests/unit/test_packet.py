"""Unit tests for the Packet container."""

import pytest

from repro.core.header import PayloadParkHeader
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet


class TestConstruction:
    def test_udp_total_size(self):
        packet = Packet.udp(total_size=512)
        assert packet.wire_length == 512
        assert packet.payload_length == 512 - ETHERNET_UDP_HEADER_BYTES

    def test_udp_rejects_too_small_total_size(self):
        with pytest.raises(ValueError):
            Packet.udp(total_size=20)

    def test_udp_length_fields_consistent(self):
        packet = Packet.udp(total_size=300)
        assert packet.ip.total_length == 300 - 14
        assert packet.l4.length == 300 - 14 - 20

    def test_tcp_construction(self):
        packet = Packet.tcp(payload=b"x" * 10)
        assert packet.l4.HEADER_LEN == 20
        assert packet.payload_length == 10

    def test_tcp_copy_is_equal_until_its_payload_moves(self):
        packet = Packet.tcp(payload=b"x" * 10)
        clone = packet.copy()
        assert clone == packet and clone.l4 is not packet.l4
        clone.payload = b"y" * 4
        assert clone != packet
        assert clone.wire_length == packet.wire_length - 6

    def test_packet_ids_are_unique(self):
        first, second = Packet.udp(total_size=64), Packet.udp(total_size=64)
        assert first.packet_id != second.packet_id


class TestSizeAccounting:
    def test_useful_bytes_is_headers_only(self):
        packet = Packet.udp(total_size=1000)
        assert packet.useful_bytes == ETHERNET_UDP_HEADER_BYTES

    def test_wire_length_includes_payloadpark_header(self):
        packet = Packet.udp(total_size=500)
        packet.pp = PayloadParkHeader(enb=1, tbl_idx=3, clk=4).seal()
        assert packet.wire_length == 500 + PayloadParkHeader.HEADER_LEN


class TestSerialization:
    def test_round_trip_preserves_bytes(self):
        packet = Packet.udp(total_size=256, src_ip="10.9.8.7", dst_port=4242)
        raw = packet.to_bytes()
        parsed = Packet.from_bytes(raw)
        assert parsed.to_bytes() == raw

    def test_five_tuple_survives_round_trip(self):
        packet = Packet.udp(total_size=128, src_port=1111, dst_port=2222)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.five_tuple() == packet.five_tuple()

    def test_wire_length_matches_serialized_length(self):
        packet = Packet.udp(total_size=777)
        assert packet.wire_length == len(packet.to_bytes())


class TestParkRestore:
    def test_park_and_restore_round_trip(self):
        packet = Packet.udp(total_size=512)
        original = packet.to_bytes()
        parked = packet.park_leading_payload(160)
        assert len(parked) == 160
        assert packet.wire_length == 512 - 160
        assert packet.ip.total_length == 512 - 14 - 160
        packet.restore_leading_payload(parked)
        assert packet.to_bytes() == original

    def test_park_rejects_more_than_payload(self):
        packet = Packet.udp(total_size=100)
        with pytest.raises(ValueError):
            packet.park_leading_payload(packet.payload_length + 1)

    def test_park_zero_bytes_is_noop(self):
        packet = Packet.udp(total_size=100)
        before = packet.to_bytes()
        assert packet.park_leading_payload(0) == b""
        assert packet.to_bytes() == before

    def test_copy_shares_payload_but_not_headers(self):
        packet = Packet.udp(total_size=200)
        clone = packet.copy()
        clone.eth.swap_addresses()
        clone.ip.ttl = 5
        assert packet.eth.dst != clone.eth.dst
        assert packet.ip.ttl != clone.ip.ttl
        assert packet.payload is clone.payload

    def test_five_tuple_none_without_l4(self):
        packet = Packet.udp(total_size=100)
        packet.l4 = None
        assert packet.five_tuple() is None
