"""The 8-byte UDP header.

The paper uses the UDP header as the unit of useful information when
measuring goodput, and the Ethernet+IPv4+UDP header stack (42 bytes) as
the header/payload decoupling boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.compat import SLOTTED

UDP_HEADER_LEN = 8


@dataclass(**SLOTTED)
class UdpHeader:
    """A UDP header.  ``length`` covers the UDP header plus its payload."""

    src_port: int
    dst_port: int
    length: int = UDP_HEADER_LEN
    checksum: int = 0

    HEADER_LEN = UDP_HEADER_LEN

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")

    def to_bytes(self) -> bytes:
        """Serialize to the 8-byte wire format."""
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        """Parse the first 8 bytes of *data* as a UDP header."""
        if len(data) < UDP_HEADER_LEN:
            raise ValueError(f"UDP header needs {UDP_HEADER_LEN} bytes, got {len(data)}")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:UDP_HEADER_LEN])
        return cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum)

    def copy(self) -> "UdpHeader":
        """Return an independent copy of this header."""
        return UdpHeader(
            src_port=self.src_port,
            dst_port=self.dst_port,
            length=self.length,
            checksum=self.checksum,
        )
