"""IPv4 addresses and the 20-byte (option-less) IPv4 header."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.compat import SLOTTED
from repro.packet.checksum import internet_checksum

IPV4_HEADER_LEN = 20
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True, **SLOTTED)
class IPv4Address:
    """A 32-bit IPv4 address stored as an integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {self.value:#x}")

    @classmethod
    def from_string(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation, e.g. ``10.0.0.1``."""
        parts = text.split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError(f"malformed IPv4 address: {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        """Decode 4 big-endian bytes."""
        if len(data) != 4:
            raise ValueError(f"IPv4 address must be 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        """Encode as 4 big-endian bytes."""
        return self.value.to_bytes(4, "big")

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ".".join(str(b) for b in raw)

    def in_subnet(self, network: "IPv4Address", prefix_len: int) -> bool:
        """Return True if this address lies within ``network/prefix_len``."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"invalid prefix length: {prefix_len}")
        if prefix_len == 0:
            return True
        mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
        return (self.value & mask) == (network.value & mask)


@dataclass(**SLOTTED)
class IPv4Header:
    """An option-less IPv4 header.

    ``total_length`` covers the IPv4 header plus everything after it
    (L4 header and payload); callers must keep it consistent when they
    truncate or extend packets, which is exactly what the PayloadPark
    Split/Merge operations do.
    """

    src: IPv4Address
    dst: IPv4Address
    protocol: int = PROTO_UDP
    total_length: int = IPV4_HEADER_LEN
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    flags: int = 0
    fragment_offset: int = 0
    checksum: int = field(default=0)

    HEADER_LEN = IPV4_HEADER_LEN

    def to_bytes(self, recompute_checksum: bool = True) -> bytes:
        """Serialize to 20 bytes, recomputing the header checksum by default."""
        version_ihl = (4 << 4) | 5
        flags_fragment = ((self.flags & 0x7) << 13) | (self.fragment_offset & 0x1FFF)
        header_wo_checksum = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            self.dscp,
            self.total_length,
            self.identification,
            flags_fragment,
            self.ttl,
            self.protocol,
            0,
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        checksum = self.checksum
        if recompute_checksum:
            checksum = internet_checksum(header_wo_checksum)
            self.checksum = checksum
        return header_wo_checksum[:10] + struct.pack("!H", checksum) + header_wo_checksum[12:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Header":
        """Parse the first 20 bytes of *data* as an IPv4 header."""
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError(f"IPv4 header needs {IPV4_HEADER_LEN} bytes, got {len(data)}")
        (
            version_ihl,
            dscp,
            total_length,
            identification,
            flags_fragment,
            ttl,
            protocol,
            checksum,
            src_raw,
            dst_raw,
        ) = struct.unpack("!BBHHHBBH4s4s", data[:IPV4_HEADER_LEN])
        version = version_ihl >> 4
        if version != 4:
            raise ValueError(f"not an IPv4 header (version={version})")
        return cls(
            src=IPv4Address.from_bytes(src_raw),
            dst=IPv4Address.from_bytes(dst_raw),
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=identification,
            dscp=dscp,
            flags=(flags_fragment >> 13) & 0x7,
            fragment_offset=flags_fragment & 0x1FFF,
            checksum=checksum,
        )

    def copy(self) -> "IPv4Header":
        """Return an independent copy of this header."""
        return IPv4Header(
            src=self.src,
            dst=self.dst,
            protocol=self.protocol,
            total_length=self.total_length,
            ttl=self.ttl,
            identification=self.identification,
            dscp=self.dscp,
            flags=self.flags,
            fragment_offset=self.fragment_offset,
            checksum=self.checksum,
        )
