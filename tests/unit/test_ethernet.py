"""Unit tests for Ethernet headers and MAC addresses."""

import pytest

from repro.packet.ethernet import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    MacAddress,
)


class TestMacAddress:
    def test_from_string_round_trip(self):
        mac = MacAddress.from_string("02:00:00:00:00:2a")
        assert str(mac) == "02:00:00:00:00:2a"
        assert mac.value == 0x02000000002A

    def test_from_bytes_round_trip(self):
        raw = bytes.fromhex("0200deadbeef")
        assert MacAddress.from_bytes(raw).to_bytes() == raw

    def test_rejects_malformed_strings(self):
        with pytest.raises(ValueError):
            MacAddress.from_string("02:00:00:00:00")
        with pytest.raises(ValueError):
            MacAddress.from_string("zz:00:00:00:00:01")

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)


class TestEthernetHeader:
    def _header(self):
        return EthernetHeader(
            dst=MacAddress.from_string("02:00:00:00:00:02"),
            src=MacAddress.from_string("02:00:00:00:00:01"),
            ethertype=ETHERTYPE_IPV4,
        )

    def test_serialization_round_trip(self):
        header = self._header()
        parsed = EthernetHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_wire_length_is_14_bytes(self):
        assert len(self._header().to_bytes()) == 14

    def test_from_bytes_rejects_short_input(self):
        with pytest.raises(ValueError):
            EthernetHeader.from_bytes(b"\x00" * 13)

    def test_swap_addresses(self):
        header = self._header()
        src, dst = header.src, header.dst
        header.swap_addresses()
        assert header.src == dst and header.dst == src

    def test_copy_is_independent(self):
        header = self._header()
        clone = header.copy()
        clone.swap_addresses()
        assert clone.src != header.src
