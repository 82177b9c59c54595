"""Unit tests for the UDP and TCP header codecs."""

import pytest

from repro.packet.tcp import FLAG_ACK, FLAG_SYN, TcpHeader
from repro.packet.udp import UdpHeader


class TestUdpHeader:
    def test_round_trip(self):
        header = UdpHeader(src_port=1234, dst_port=80, length=200, checksum=7)
        parsed = UdpHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_wire_length(self):
        assert len(UdpHeader(src_port=1, dst_port=2).to_bytes()) == 8

    def test_rejects_bad_ports(self):
        with pytest.raises(ValueError):
            UdpHeader(src_port=-1, dst_port=2)
        with pytest.raises(ValueError):
            UdpHeader(src_port=1, dst_port=70000)

    def test_rejects_short_buffer(self):
        with pytest.raises(ValueError):
            UdpHeader.from_bytes(b"\x00" * 7)

    def test_copy_is_independent(self):
        header = UdpHeader(src_port=1, dst_port=2, length=50)
        clone = header.copy()
        clone.length = 60
        assert header.length == 50


class TestTcpHeader:
    def test_round_trip(self):
        header = TcpHeader(
            src_port=443, dst_port=51000, seq=1000, ack=2000, flags=FLAG_SYN | FLAG_ACK
        )
        parsed = TcpHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_wire_length(self):
        assert len(TcpHeader(src_port=1, dst_port=2).to_bytes()) == 20

    def test_rejects_out_of_range_sequence(self):
        with pytest.raises(ValueError):
            TcpHeader(src_port=1, dst_port=2, seq=1 << 32)

    def test_rejects_short_buffer(self):
        with pytest.raises(ValueError):
            TcpHeader.from_bytes(b"\x00" * 10)
