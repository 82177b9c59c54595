"""The PayloadPark header (Fig. 2 of the paper).

The header is inserted between the UDP header and the (remaining)
payload of every packet that arrives on a PayloadPark-enabled port:

====== ======= =========================================================
Field  Width   Meaning
====== ======= =========================================================
ENB    1 bit   payload successfully parked in the switch
OP     1 bit   opcode: 0 = Merge, 1 = Explicit Drop
ALIGN  6 bits  padding for byte alignment
TAG    48 bits table index (16) + generation clock (16) + CRC (16)
====== ======= =========================================================

The CRC covers the table index and clock so that the Merge stage can
reject corrupted or forged tags before touching the lookup table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.compat import SLOTTED
from repro.packet.crc import crc16

#: Opcode values for the OP bit.
OP_MERGE = 0
OP_EXPLICIT_DROP = 1

PP_HEADER_LEN = 7  # 1 byte of flags/align + 6 bytes of tag

#: Width of the tag's clock field.  A tag's CRC memo key is its first 32
#: bits as one int, ``tbl_idx << TAG_CLK_BITS | clk`` — the bytes the
#: CRC covers.
TAG_CLK_BITS = 16

#: Tag key -> CRC-16, shared across headers.  The split and merge
#: kernels read it directly and call :func:`tag_crc` on a miss, which
#: fills it.  The tag space is bounded by table entries × clock
#: generations; the limit is a safety net for pathological
#: configurations.
TAG_CRCS = {}
_TAG_CRC_MEMO_LIMIT = 1 << 20


def tag_crc(tbl_idx: int, clk: int) -> int:
    """CRC-16 over a tag's table index and clock (memoized in :data:`TAG_CRCS`).

    Split seals and Merge validates one tag per packet, but the
    (tbl_idx, clk) space is tiny — table entries × generation clocks —
    so the CRC is computed once per distinct tag and then served from
    the memo.  A field outside 16 bits fails ``struct.pack``.
    """
    key = (tbl_idx << TAG_CLK_BITS) | clk
    crc = TAG_CRCS.get(key)
    if crc is None:
        crc = crc16(struct.pack("!HH", tbl_idx, clk))
        if len(TAG_CRCS) >= _TAG_CRC_MEMO_LIMIT:
            TAG_CRCS.clear()
        TAG_CRCS[key] = crc
    return crc


@dataclass(**SLOTTED)
class PayloadParkHeader:
    """The 7-byte PayloadPark header."""

    enb: int = 0
    op: int = OP_MERGE
    tbl_idx: int = 0
    clk: int = 0
    crc: int = 0

    HEADER_LEN = PP_HEADER_LEN

    def __post_init__(self) -> None:
        if self.enb not in (0, 1):
            raise ValueError(f"ENB must be 0 or 1, got {self.enb}")
        if self.op not in (OP_MERGE, OP_EXPLICIT_DROP):
            raise ValueError(f"OP must be 0 or 1, got {self.op}")
        if not 0 <= self.tbl_idx <= 0xFFFF:
            raise ValueError(f"table index out of range: {self.tbl_idx}")
        if not 0 <= self.clk <= 0xFFFF:
            raise ValueError(f"clock out of range: {self.clk}")

    # ------------------------------------------------------------------ #
    # Tag integrity
    # ------------------------------------------------------------------ #

    def compute_crc(self) -> int:
        """CRC-16 over the table index and clock (see :func:`tag_crc`)."""
        return tag_crc(self.tbl_idx, self.clk)

    def seal(self) -> "PayloadParkHeader":
        """Fill in the CRC field from the current tag values."""
        self.crc = self.compute_crc()
        return self

    def tag_is_valid(self) -> bool:
        """True when the stored CRC matches the tag fields."""
        return self.crc == self.compute_crc()

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize: flags/align byte then the 48-bit tag."""
        flags = ((self.enb & 0x1) << 7) | ((self.op & 0x1) << 6)
        return struct.pack("!BHHH", flags, self.tbl_idx, self.clk, self.crc)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PayloadParkHeader":
        """Parse the first 7 bytes of *data* as a PayloadPark header."""
        if len(data) < PP_HEADER_LEN:
            raise ValueError(f"PayloadPark header needs {PP_HEADER_LEN} bytes, got {len(data)}")
        flags, tbl_idx, clk, crc = struct.unpack("!BHHH", data[:PP_HEADER_LEN])
        return cls(
            enb=(flags >> 7) & 0x1,
            op=(flags >> 6) & 0x1,
            tbl_idx=tbl_idx,
            clk=clk,
            crc=crc,
        )

    @classmethod
    def disabled(cls) -> "PayloadParkHeader":
        """An all-zero header: Split was not performed (ENB=0)."""
        return cls(enb=0, op=OP_MERGE, tbl_idx=0, clk=0, crc=0)

    def copy(self) -> "PayloadParkHeader":
        """Return an independent copy of this header."""
        return PayloadParkHeader(
            enb=self.enb, op=self.op, tbl_idx=self.tbl_idx, clk=self.clk, crc=self.crc
        )
