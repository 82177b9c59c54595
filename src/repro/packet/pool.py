"""Flat-cost frame construction: the traffic generators' default builder.

``Packet.udp`` re-parses MAC and IPv4 address strings and re-validates
every header field for each generated frame, even though a traffic
generator emits millions of frames that differ only in size and flow.
:class:`FramePool` parses the two MAC addresses once and then fills
each frame's headers in directly: the immutable pieces —
:class:`~repro.packet.ethernet.MacAddress`,
:class:`~repro.packet.ipv4.IPv4Address`, payload byte slices — are
shared outright, the mutable headers are fresh objects whose fields are
stored one by one, skipping ``__init__`` and its validation (the one
check a flow can fail, the port range, is kept inline).

There is deliberately no per-flow state (no template per flow): a frame
costs the same whether or not its flow has been seen.  The headline
scenario offers 4096 flows and a benchmark round sends ~3.5 k packets
per deployment, so every frame there belongs to a new flow — a
per-flow memo was measured to miss on all of them, at twice the cost
of a hit.  Nor is a prototype cloned with ``__dict__.update``: storing
the fields one by one is as cheap, works on the slotted layout the
frame and header classes have from Python 3.10 (no ``__dict__`` to
update), and on 3.9 keeps them on CPython's shared-key attribute
layout — either way every later read of them (switch, NFs, links) is
measurably faster than on a cloned ``__dict__``.

A pooled frame's ``wire_length`` / ``useful_bytes`` are stored, like
every frame's (see :mod:`repro.packet.packet`), but not derived: the
pool was asked for *size* wire bytes of Ethernet + IPv4 + UDP, so it
stores *size* and 42.  It is the one writer outside ``Packet`` that
fills the private part slots directly; everything downstream that
changes a frame's size goes through ``Packet``'s own writers.

The pooled frames are byte-for-byte identical to what
:func:`repro.traffic.pktgen.build_udp_frame` produces (``tests/unit``
and ``tests/property`` assert wire-image and field equality, which is
also what pins the header defaults restated in :meth:`FramePool.frame`),
so the reference and default generator paths are interchangeable;
checksums and tag CRCs are not precomputed here but lazily, exactly
where the reference path computes them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.packet.ethernet import ETHERTYPE_IPV4, EthernetHeader, MacAddress
from repro.packet.ipv4 import PROTO_UDP, IPv4Address, IPv4Header
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet, _packet_ids
from repro.packet.udp import UdpHeader

#: Same reusable payload pattern the reference generator slices from
#: (see ``_PAYLOAD_PATTERN`` in :mod:`repro.traffic.pktgen`).
_PAYLOAD_PATTERN = bytes(range(256)) * 8

#: payload length -> payload bytes, shared by every pool in the process
#: (the pattern is deterministic, so slices are interchangeable).
_PAYLOAD_SLICES: Dict[int, bytes] = {}

#: Growth bound for the payload-slice memo; workloads draw sizes from
#: empirical distributions, so distinct lengths number in the hundreds.
_MAX_PAYLOAD_SLICES = 8192


def payload_slice(payload_len: int) -> bytes:
    """The deterministic payload of *payload_len* bytes, memoized.

    Byte-for-byte the payload :func:`repro.traffic.pktgen.build_udp_frame`
    produces: a slice of the repeating 0x00..0xFF pattern.
    """
    payload = _PAYLOAD_SLICES.get(payload_len)
    if payload is None:
        payload = _PAYLOAD_PATTERN[:payload_len]
        if len(payload) < payload_len:
            payload = (
                _PAYLOAD_PATTERN * (payload_len // len(_PAYLOAD_PATTERN) + 1)
            )[:payload_len]
        if len(_PAYLOAD_SLICES) >= _MAX_PAYLOAD_SLICES:
            _PAYLOAD_SLICES.clear()
        _PAYLOAD_SLICES[payload_len] = payload
    return payload


class FramePool:
    """Builds UDP frames field by field (the default engine's builder).

    Parameters
    ----------
    src_mac / dst_mac:
        Ethernet addresses stamped on every frame; parsed once.
    """

    __slots__ = ("_src_mac", "_dst_mac")

    def __init__(self, src_mac: str, dst_mac: str) -> None:
        self._src_mac = MacAddress.from_string(src_mac)
        self._dst_mac = MacAddress.from_string(dst_mac)

    def frame(self, size: int, flow, src_ip: Optional[IPv4Address] = None) -> Packet:
        """Build one UDP frame of *size* wire bytes for *flow*.

        *src_ip* (an already-parsed :class:`IPv4Address`) overrides the
        flow's source for blacklist steering, mirroring the ``src_ip``
        string argument of :func:`~repro.traffic.pktgen.build_udp_frame`.
        """
        src_port = flow.src_port
        dst_port = flow.dst_port
        if not 0 <= src_port <= 0xFFFF:
            raise ValueError(f"src_port out of range: {src_port}")
        if not 0 <= dst_port <= 0xFFFF:
            raise ValueError(f"dst_port out of range: {dst_port}")
        if size < ETHERNET_UDP_HEADER_BYTES:
            size = ETHERNET_UDP_HEADER_BYTES
        payload_len = size - ETHERNET_UDP_HEADER_BYTES
        udp_len = UdpHeader.HEADER_LEN + payload_len

        # Every field, in dataclass declaration order (the order
        # ``__init__`` would store them in).
        eth = object.__new__(EthernetHeader)
        eth.dst = self._dst_mac
        eth.src = self._src_mac
        eth.ethertype = ETHERTYPE_IPV4
        ip = object.__new__(IPv4Header)
        ip.src = flow.src_ip if src_ip is None else src_ip
        ip.dst = flow.dst_ip
        ip.protocol = PROTO_UDP
        ip.total_length = IPv4Header.HEADER_LEN + udp_len
        ip.ttl = 64
        ip.identification = 0
        ip.dscp = 0
        ip.flags = 0
        ip.fragment_offset = 0
        ip.checksum = 0
        l4 = object.__new__(UdpHeader)
        l4.src_port = src_port
        l4.dst_port = dst_port
        l4.length = udp_len
        l4.checksum = 0

        # The slots themselves, not the size-keeping properties: this
        # frame's size is known, not derived — Ethernet + IPv4 + UDP
        # headers (all useful bytes) plus the payload is *size*.
        packet = object.__new__(Packet)
        packet.eth = eth
        packet._ip = ip
        packet._l4 = l4
        packet._payload = payload_slice(payload_len)
        packet._pp = None
        packet.meta = {}
        packet.packet_id = next(_packet_ids)
        packet.wire_length = size
        packet.useful_bytes = ETHERNET_UDP_HEADER_BYTES
        return packet
