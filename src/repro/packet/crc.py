"""CRC implementations used by the PayloadPark tag validation.

The PayloadPark header carries a 48-bit tag composed of a table index, a
generation (clock) number and a CRC.  The CRC lets the Merge stage reject
corrupted or forged tags before touching the lookup table.  Tofino exposes
hardware CRC units; here we provide a table-driven CRC-16/CCITT
implementation with the same observable behaviour.
"""

from __future__ import annotations

from typing import List

_CRC16_POLY = 0x1021  # CRC-16/CCITT-FALSE


def _build_crc16_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC16_TABLE = _build_crc16_table()


def crc16(data: bytes, initial: int = 0xFFFF) -> int:
    """Compute CRC-16/CCITT-FALSE of *data*.

    Parameters
    ----------
    data:
        Input bytes.
    initial:
        Initial register value (``0xFFFF`` for CCITT-FALSE).
    """
    crc = initial & 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc
