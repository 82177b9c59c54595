"""The 20-byte (option-less) TCP header.

PayloadPark's prototype replays UDP traffic, but the mechanism is protocol
agnostic (§7 "Decoupling boundary"); we provide TCP so the decoupling
boundary ablation can include TCP flows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.compat import SLOTTED

TCP_HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20


@dataclass(**SLOTTED)
class TcpHeader:
    """An option-less TCP header."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    HEADER_LEN = TCP_HEADER_LEN

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            port = getattr(self, name)
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")
        if not 0 <= self.seq <= 0xFFFFFFFF:
            raise ValueError(f"seq out of range: {self.seq}")
        if not 0 <= self.ack <= 0xFFFFFFFF:
            raise ValueError(f"ack out of range: {self.ack}")

    def to_bytes(self) -> bytes:
        """Serialize to the 20-byte wire format (data offset = 5 words)."""
        offset_flags = (5 << 12) | (self.flags & 0x3F)
        return struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpHeader":
        """Parse the first 20 bytes of *data* as a TCP header."""
        if len(data) < TCP_HEADER_LEN:
            raise ValueError(f"TCP header needs {TCP_HEADER_LEN} bytes, got {len(data)}")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack("!HHIIHHHH", data[:TCP_HEADER_LEN])
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x3F,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )

    @property
    def is_syn(self) -> bool:
        """True when the SYN flag is set."""
        return bool(self.flags & FLAG_SYN)

    @property
    def is_fin(self) -> bool:
        """True when the FIN flag is set."""
        return bool(self.flags & FLAG_FIN)

    def copy(self) -> "TcpHeader":
        """Return an independent copy of this header."""
        return TcpHeader(
            src_port=self.src_port,
            dst_port=self.dst_port,
            seq=self.seq,
            ack=self.ack,
            flags=self.flags,
            window=self.window,
            checksum=self.checksum,
            urgent=self.urgent,
        )
