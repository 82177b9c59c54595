"""Minimal libpcap-format (``.pcap``) reader and writer.

The paper replays PCAP files that reproduce the Benson et al. enterprise
datacenter packet-size distribution, and validates functional equivalence
by diffing PCAPs captured with DPDK-pdump.  This module provides just
enough of the classic (non-ng) pcap format to support both uses without
any external dependency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_VERSION_MAJOR = 2
PCAP_VERSION_MINOR = 4
LINKTYPE_ETHERNET = 1
#: Bytes kept per frame: the classic format's customary maximum.
PCAP_SNAPLEN = 65535

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


@dataclass
class PcapRecord:
    """One captured frame: a timestamp (seconds, microseconds) and bytes."""

    ts_sec: int
    ts_usec: int
    data: bytes

    @property
    def timestamp(self) -> float:
        """Timestamp in (float) seconds."""
        return self.ts_sec + self.ts_usec / 1_000_000.0


class PcapWriter:
    """Write frames to a classic little-endian pcap file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._file = open(self._path, "wb")
        self._file.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                PCAP_VERSION_MAJOR,
                PCAP_VERSION_MINOR,
                0,  # thiszone
                0,  # sigfigs
                PCAP_SNAPLEN,
                LINKTYPE_ETHERNET,
            )
        )

    def write(self, data: bytes, timestamp: float = 0.0) -> None:
        """Append one frame with the given timestamp (seconds)."""
        ts_sec = int(timestamp)
        ts_usec = int(round((timestamp - ts_sec) * 1_000_000))
        captured = data[:PCAP_SNAPLEN]
        self._file.write(_RECORD_HEADER.pack(ts_sec, ts_usec, len(captured), len(data)))
        self._file.write(captured)

    def close(self) -> None:
        """Flush and close the file."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PcapReader:
    """Read frames from a classic pcap file (either byte order)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._file = open(self._path, "rb")
        try:
            header = self._file.read(_GLOBAL_HEADER.size)
            if len(header) < _GLOBAL_HEADER.size:
                raise ValueError(f"{self._path} is not a pcap file (truncated header)")
            magic_le = struct.unpack("<I", header[:4])[0]
            if magic_le == PCAP_MAGIC:
                self._endian = "<"
            elif magic_le == PCAP_MAGIC_SWAPPED:
                self._endian = ">"
            else:
                raise ValueError(f"{self._path} is not a pcap file (bad magic {magic_le:#x})")
            linktype = struct.unpack(self._endian + "IHHiIII", header)[6]
            if linktype != LINKTYPE_ETHERNET:  # every reader parses the frames as Ethernet
                raise ValueError(
                    f"{self._path} captures link type {linktype}, "
                    f"not Ethernet ({LINKTYPE_ETHERNET})"
                )
        except ValueError:
            self._file.close()
            raise

    def __iter__(self) -> Iterator[PcapRecord]:
        record_struct = struct.Struct(self._endian + "IIII")
        while True:
            header = self._file.read(record_struct.size)
            if len(header) < record_struct.size:
                return
            ts_sec, ts_usec, incl_len, _orig_len = record_struct.unpack(header)
            data = self._file.read(incl_len)
            if len(data) < incl_len:
                return
            yield PcapRecord(ts_sec=ts_sec, ts_usec=ts_usec, data=data)

    def close(self) -> None:
        """Close the underlying file."""
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_pcap(path: Union[str, Path], frames: Iterable[Tuple[float, bytes]]) -> int:
    """Write ``(timestamp, frame_bytes)`` pairs to *path*; return the count."""
    count = 0
    with PcapWriter(path) as writer:
        for timestamp, data in frames:
            writer.write(data, timestamp)
            count += 1
    return count


def read_pcap(path: Union[str, Path]) -> List[PcapRecord]:
    """Read every record of *path* into memory."""
    with PcapReader(path) as reader:
        return list(reader)
