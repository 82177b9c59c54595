"""Unit tests for the Internet checksum and CRC helpers."""

import pytest

from repro.packet.checksum import internet_checksum
from repro.packet.crc import crc16


class TestInternetChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example header fragment.
        data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        assert internet_checksum(bytes.fromhex("450000730000400040110000c0a80001c0a800c7")) == 0xB861
        assert internet_checksum(data) == 0

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verify_detects_corruption(self):
        data = bytearray(bytes.fromhex("45000073000040004011b861c0a80001c0a800c7"))
        data[0] ^= 0xFF
        assert internet_checksum(bytes(data)) != 0

    def test_checksum_in_range(self):
        value = internet_checksum(bytes(range(200)))
        assert 0 <= value <= 0xFFFF


class TestCrc:
    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16(b"123456789") == 0x29B1

    def test_crc16_detects_single_bit_flip(self):
        data = bytearray(b"payloadpark-tag")
        original = crc16(bytes(data))
        data[3] ^= 0x01
        assert crc16(bytes(data)) != original

    def test_crc_empty_input(self):
        assert crc16(b"") == 0xFFFF

    def test_crc16_is_deterministic(self):
        assert crc16(b"abc") == crc16(b"abc")
