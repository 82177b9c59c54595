"""Ethernet II framing: MAC addresses and the 14-byte Ethernet header."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.compat import SLOTTED

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERNET_HEADER_LEN = 14


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit IEEE 802 MAC address.

    The value is stored as an integer; helpers convert to and from the
    canonical colon-separated string and the 6-byte wire format.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFFFFFF:
            raise ValueError(f"MAC address out of range: {self.value:#x}")

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (case-insensitive) into a MacAddress."""
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"malformed MAC address: {text!r}")
        value = 0
        for part in parts:
            byte = int(part, 16)
            if not 0 <= byte <= 0xFF:
                raise ValueError(f"malformed MAC address: {text!r}")
            value = (value << 8) | byte
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        """Decode a 6-byte wire-format MAC address."""
        if len(data) != 6:
            raise ValueError(f"MAC address must be 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        """Encode as 6 big-endian bytes."""
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{b:02x}" for b in raw)


@dataclass(**SLOTTED)
class EthernetHeader:
    """Ethernet II header (destination, source, ethertype)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV4

    HEADER_LEN = ETHERNET_HEADER_LEN

    def to_bytes(self) -> bytes:
        """Serialize to the 14-byte wire format."""
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack("!H", self.ethertype)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetHeader":
        """Parse the first 14 bytes of *data* as an Ethernet II header."""
        if len(data) < ETHERNET_HEADER_LEN:
            raise ValueError(
                f"Ethernet header needs {ETHERNET_HEADER_LEN} bytes, got {len(data)}"
            )
        dst = MacAddress.from_bytes(data[0:6])
        src = MacAddress.from_bytes(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(dst=dst, src=src, ethertype=ethertype)

    def swap_addresses(self) -> None:
        """Swap source and destination MAC addresses in place.

        This is exactly what the paper's MAC-swapper NF does.
        """
        self.dst, self.src = self.src, self.dst

    def copy(self) -> "EthernetHeader":
        """Return an independent copy of this header."""
        return EthernetHeader(dst=self.dst, src=self.src, ethertype=self.ethertype)
