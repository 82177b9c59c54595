"""Unit tests for IPv4 addresses and headers."""

import pytest

from repro.packet.checksum import internet_checksum
from repro.packet.ipv4 import PROTO_UDP, IPv4Address, IPv4Header


class TestIPv4Address:
    def test_round_trip_string(self):
        address = IPv4Address.from_string("10.1.2.3")
        assert str(address) == "10.1.2.3"

    def test_round_trip_bytes(self):
        raw = bytes([192, 168, 0, 1])
        assert IPv4Address.from_bytes(raw).to_bytes() == raw

    def test_rejects_bad_strings(self):
        for text in ("10.0.0", "10.0.0.256", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPv4Address.from_string(text)

    def test_subnet_membership(self):
        address = IPv4Address.from_string("192.168.42.7")
        network = IPv4Address.from_string("192.168.0.0")
        assert address.in_subnet(network, 16)
        assert not address.in_subnet(network, 24)
        assert address.in_subnet(IPv4Address.from_string("0.0.0.0"), 0)

    def test_subnet_rejects_bad_prefix(self):
        with pytest.raises(ValueError):
            IPv4Address.from_string("10.0.0.1").in_subnet(IPv4Address(0), 40)


class TestIPv4Header:
    def _header(self, total_length=120):
        return IPv4Header(
            src=IPv4Address.from_string("10.0.0.1"),
            dst=IPv4Address.from_string("10.0.0.2"),
            protocol=PROTO_UDP,
            total_length=total_length,
        )

    def test_serialization_round_trip(self):
        header = self._header()
        parsed = IPv4Header.from_bytes(header.to_bytes())
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.total_length == header.total_length
        assert parsed.protocol == PROTO_UDP

    def test_checksum_is_valid_on_wire(self):
        assert internet_checksum(self._header().to_bytes()) == 0

    def test_checksum_changes_with_content(self):
        first = self._header(total_length=100).to_bytes()
        second = self._header(total_length=200).to_bytes()
        assert first[10:12] != second[10:12]

    def test_rejects_non_ipv4_version(self):
        raw = bytearray(self._header().to_bytes())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ValueError):
            IPv4Header.from_bytes(bytes(raw))

    def test_copy_is_independent(self):
        header = self._header()
        clone = header.copy()
        clone.total_length += 10
        assert header.total_length != clone.total_length
