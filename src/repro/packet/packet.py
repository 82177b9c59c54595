"""The ``Packet`` container used throughout the simulator.

A :class:`Packet` keeps its protocol headers in parsed form (Ethernet,
IPv4, UDP/TCP) next to a raw payload.  The PayloadPark dataplane attaches
a PayloadPark header between the L4 header and the payload; the packet
only stores a reference to that header object, so the switch code in
:mod:`repro.core` can add and remove it without re-serializing the whole
frame.  ``to_bytes``/``from_bytes`` give byte-exact wire images, which the
functional-equivalence experiment (§6.2.6) compares between PayloadPark
and baseline deployments.

**A frame knows its size.**  PayloadPark's claim is about how many bytes
a frame occupies on the switch ↔ NF-server link, so every hop reads
``wire_length`` (and the switch and sink read ``useful_bytes``).  Both
are *stored* integers, not derivations: they are worked out from the
parts once, where a frame is constructed (:meth:`Packet._measure`, run
by the constructor and hence by ``from_bytes`` and ``copy``;
:meth:`repro.packet.pool.FramePool.frame` stores the size it was asked
for), and afterwards adjusted only by what can change a frame's size:

* :meth:`Packet.park_leading_payload` / :meth:`Packet.restore_leading_payload`
  (Split, Merge and the NF server's Explicit-Drop truncation),
* attaching or detaching the PayloadPark header (``packet.pp = ...``),
* assigning ``packet.payload``, ``packet.ip`` or ``packet.l4``.

The four size-bearing parts are therefore properties over private slots:
reading one costs no Python frame (the getter is the slot's own C-level
``__get__``), writing one runs a setter that moves the stored size with
it.  There is no "call ``resize()`` afterwards" rule — plain assignment
keeps the size right.  What nobody may do is write ``_payload`` / ``_pp``
/ ``_ip`` / ``_l4`` from outside this package without moving
``wire_length`` too; ``FramePool.frame`` is the one such writer.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Union

from repro.packet.ethernet import ETHERTYPE_IPV4, EthernetHeader, MacAddress
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Address, IPv4Header
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader

#: Ethernet (14) + IPv4 (20) + UDP (8): the header/payload decoupling
#: boundary and the per-packet "useful bytes" unit used for goodput.
ETHERNET_UDP_HEADER_BYTES = 42

_packet_ids = itertools.count()

#: Resolved on first use by :meth:`Packet.five_tuple` (import-cycle guard).
_FiveTuple = None


class Packet:
    """A parsed network packet plus simulator metadata.

    Attributes
    ----------
    eth:
        Ethernet header (always present).
    ip:
        IPv4 header, or ``None`` for non-IP frames.
    l4:
        UDP or TCP header, or ``None``.
    payload:
        Application payload bytes (after the L4 header).
    pp:
        The PayloadPark header attached by the switch's Split stage, or
        ``None``.  Stored by reference; it contributes its
        ``HEADER_LEN`` bytes (as the L4 header does) to the wire length
        while attached.
    meta:
        Free-form simulation metadata (ingress port, timestamps, …).
    packet_id:
        Monotonic identifier assigned at construction, used for
        latency bookkeeping and functional-equivalence matching.
    wire_length:
        Total bytes this frame occupies on a link right now, including
        the PayloadPark header if attached.  After Split the payload has
        been truncated, so the wire length shrinks — that is the whole
        point of PayloadPark.  Stored; see the module docstring for who
        moves it.
    useful_bytes:
        Bytes of useful information for goodput accounting.  The paper
        counts the Ethernet+IPv4+UDP header (42 bytes) as the useful
        part of each packet, because that is all a shallow NF examines;
        packets without an L4 header count their actual header bytes.
        Stored, like ``wire_length``.
    """

    __slots__ = (
        "eth",
        "_ip",
        "_l4",
        "_payload",
        "_pp",
        "meta",
        "packet_id",
        "wire_length",
        "useful_bytes",
    )

    #: Mutable and compared by value (as the dataclass it used to be).
    __hash__ = None

    def __init__(
        self,
        eth: EthernetHeader,
        ip: Optional[IPv4Header] = None,
        l4: Optional[Union[UdpHeader, TcpHeader]] = None,
        payload: bytes = b"",
        pp: Optional[Any] = None,
        meta: Optional[Dict[str, Any]] = None,
        packet_id: Optional[int] = None,
    ) -> None:
        self.eth = eth
        self._ip = ip
        self._l4 = l4
        self._payload = payload
        self._pp = pp
        self.meta = {} if meta is None else meta
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self._measure()

    def _measure(self) -> None:
        """Work ``wire_length`` and ``useful_bytes`` out from the parts.

        The one derivation of a frame's size: run when a frame is
        constructed from parts (and when ``ip`` / ``l4`` are reassigned,
        which changes both figures).  Never on a hop — the per-hop
        writers (park / restore / ``pp``) move the stored value by the
        bytes they add or remove.
        """
        headers = self.header_length
        self.useful_bytes = min(headers, ETHERNET_UDP_HEADER_BYTES)
        pp = self._pp
        self.wire_length = (
            headers + len(self._payload) + (pp.HEADER_LEN if pp is not None else 0)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.eth == other.eth
            and self._ip == other._ip
            and self._l4 == other._l4
            and self._payload == other._payload
            and self._pp == other._pp
            and self.meta == other.meta
            and self.packet_id == other.packet_id
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def udp(
        cls,
        src_mac: str = "02:00:00:00:00:01",
        dst_mac: str = "02:00:00:00:00:02",
        src_ip: str = "10.0.0.1",
        dst_ip: str = "10.0.0.2",
        src_port: int = 1234,
        dst_port: int = 5678,
        payload: bytes = b"",
        total_size: Optional[int] = None,
    ) -> "Packet":
        """Build a UDP packet.

        If *total_size* is given the payload is padded (with a repeating
        pattern) or the caller-supplied payload truncated so the full
        frame is exactly ``total_size`` bytes, mirroring how PktGen
        produces fixed-size packets.
        """
        if total_size is not None:
            if total_size < ETHERNET_UDP_HEADER_BYTES:
                raise ValueError(
                    f"total_size must be >= {ETHERNET_UDP_HEADER_BYTES}, got {total_size}"
                )
            payload_len = total_size - ETHERNET_UDP_HEADER_BYTES
            payload = _pad_payload(payload, payload_len)
        udp_len = UdpHeader.HEADER_LEN + len(payload)
        ip_len = IPv4Header.HEADER_LEN + udp_len
        packet = cls(
            eth=EthernetHeader(
                dst=MacAddress.from_string(dst_mac),
                src=MacAddress.from_string(src_mac),
                ethertype=ETHERTYPE_IPV4,
            ),
            ip=IPv4Header(
                src=IPv4Address.from_string(src_ip),
                dst=IPv4Address.from_string(dst_ip),
                protocol=PROTO_UDP,
                total_length=ip_len,
            ),
            l4=UdpHeader(src_port=src_port, dst_port=dst_port, length=udp_len),
            payload=payload,
        )
        return packet

    @classmethod
    def tcp(
        cls,
        src_mac: str = "02:00:00:00:00:01",
        dst_mac: str = "02:00:00:00:00:02",
        src_ip: str = "10.0.0.1",
        dst_ip: str = "10.0.0.2",
        src_port: int = 1234,
        dst_port: int = 80,
        payload: bytes = b"",
        flags: int = 0,
    ) -> "Packet":
        """Build an option-less TCP packet."""
        ip_len = IPv4Header.HEADER_LEN + TcpHeader.HEADER_LEN + len(payload)
        return cls(
            eth=EthernetHeader(
                dst=MacAddress.from_string(dst_mac),
                src=MacAddress.from_string(src_mac),
                ethertype=ETHERTYPE_IPV4,
            ),
            ip=IPv4Header(
                src=IPv4Address.from_string(src_ip),
                dst=IPv4Address.from_string(dst_ip),
                protocol=PROTO_TCP,
                total_length=ip_len,
            ),
            l4=TcpHeader(src_port=src_port, dst_port=dst_port, flags=flags),
            payload=payload,
        )

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #

    @property
    def header_length(self) -> int:
        """Bytes of protocol headers (Ethernet + IPv4 + L4), excluding PayloadPark."""
        length = EthernetHeader.HEADER_LEN
        if self._ip is not None:
            length += IPv4Header.HEADER_LEN
        l4 = self._l4
        if l4 is not None:
            length += l4.HEADER_LEN
        return length

    @property
    def payload_length(self) -> int:
        """Bytes of application payload currently carried in the frame."""
        return len(self._payload)

    # ------------------------------------------------------------------ #
    # Flow identity
    # ------------------------------------------------------------------ #

    def five_tuple(self):
        """Return ``(src_ip, dst_ip, proto, src_port, dst_port)`` or ``None``.

        Imported lazily (then memoized at module level) to avoid a cycle
        with :mod:`repro.packet.flows`.
        """
        global _FiveTuple
        FiveTuple = _FiveTuple
        if FiveTuple is None:
            from repro.packet.flows import FiveTuple

            _FiveTuple = FiveTuple
        ip, l4 = self._ip, self._l4
        if ip is None or l4 is None:
            return None
        return FiveTuple(
            src_ip=ip.src,
            dst_ip=ip.dst,
            protocol=ip.protocol,
            src_port=l4.src_port,
            dst_port=l4.dst_port,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize the frame to its exact wire image.

        Header length fields are *not* silently fixed up: the simulator
        keeps them consistent explicitly (Split/Merge adjust them), so a
        mismatch is a bug we want tests to catch.
        """
        parts = [self.eth.to_bytes()]
        if self._ip is not None:
            parts.append(self._ip.to_bytes())
        if self._l4 is not None:
            parts.append(self._l4.to_bytes())
        if self._pp is not None:
            parts.append(self._pp.to_bytes())
        parts.append(self._payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse a wire image into a Packet (Ethernet, then IPv4, then L4).

        Unknown ethertypes or IP protocols leave the remaining bytes in
        ``payload``.  The PayloadPark header is not parsed here — on the
        wire it is indistinguishable from payload to anything that is not
        PayloadPark-aware, which is what makes the optimization
        transparent; the switch re-attaches it via
        :meth:`repro.core.header.PayloadParkHeader.from_bytes`.
        """
        eth = EthernetHeader.from_bytes(data)
        offset = EthernetHeader.HEADER_LEN
        ip = None
        l4: Optional[Union[UdpHeader, TcpHeader]] = None
        if eth.ethertype == ETHERTYPE_IPV4 and len(data) >= offset + IPv4Header.HEADER_LEN:
            ip = IPv4Header.from_bytes(data[offset:])
            offset += IPv4Header.HEADER_LEN
            if ip.protocol == PROTO_UDP and len(data) >= offset + UdpHeader.HEADER_LEN:
                l4 = UdpHeader.from_bytes(data[offset:])
                offset += UdpHeader.HEADER_LEN
            elif ip.protocol == PROTO_TCP and len(data) >= offset + TcpHeader.HEADER_LEN:
                l4 = TcpHeader.from_bytes(data[offset:])
                offset += TcpHeader.HEADER_LEN
        return cls(eth=eth, ip=ip, l4=l4, payload=data[offset:])

    # ------------------------------------------------------------------ #
    # Mutation helpers used by the dataplane
    # ------------------------------------------------------------------ #

    def park_leading_payload(self, parked_bytes: int) -> bytes:
        """Remove and return the leading *parked_bytes* of the payload.

        Length fields in the IPv4 and UDP headers are adjusted so the
        truncated frame is self-consistent on the wire.
        """
        payload = self._payload
        if parked_bytes < 0 or parked_bytes > len(payload):
            raise ValueError(
                f"cannot park {parked_bytes} bytes of a {len(payload)}-byte payload"
            )
        self._payload = payload[parked_bytes:]
        self._adjust_lengths(-parked_bytes)
        return payload[:parked_bytes]

    def restore_leading_payload(self, parked: bytes) -> None:
        """Prepend previously parked bytes back onto the payload."""
        self._payload = parked + self._payload
        self._adjust_lengths(len(parked))

    def _adjust_lengths(self, delta: int) -> None:
        """Apply *delta* payload bytes to the stored wire length and to
        the IPv4 total length and UDP length fields."""
        self.wire_length += delta
        ip = self._ip
        if ip is not None:
            ip.total_length += delta
        l4 = self._l4
        if isinstance(l4, UdpHeader):
            l4.length += delta

    def copy(self) -> "Packet":
        """Deep-enough copy: headers are copied, payload bytes are shared.

        ``bytes`` objects are immutable so sharing them is safe; header
        objects are mutable (NFs rewrite them) and therefore copied.
        """
        ip, l4, pp = self._ip, self._l4, self._pp
        return Packet(
            eth=self.eth.copy(),
            ip=ip.copy() if ip is not None else None,
            l4=l4.copy() if l4 is not None else None,
            payload=self._payload,
            pp=pp.copy() if pp is not None else None,
            meta=dict(self.meta),
            packet_id=self.packet_id,
        )


def _pad_payload(payload: bytes, target_len: int) -> bytes:
    """Pad or truncate *payload* to exactly *target_len* bytes."""
    if len(payload) >= target_len:
        return payload[:target_len]
    pattern = b"\xab\xcd\xef\x01"
    needed = target_len - len(payload)
    filler = (pattern * (needed // len(pattern) + 1))[:needed]
    return payload + filler


def _set_payload(self: Packet, payload: bytes) -> None:
    self.wire_length += len(payload) - len(self._payload)
    self._payload = payload


def _set_pp(self: Packet, pp: Optional[Any]) -> None:
    old = self._pp
    self.wire_length += (pp.HEADER_LEN if pp is not None else 0) - (
        old.HEADER_LEN if old is not None else 0
    )
    self._pp = pp


def _set_l4(self: Packet, l4: Optional[Union[UdpHeader, TcpHeader]]) -> None:
    self._l4 = l4
    self._measure()


# The size-bearing parts are properties over the private slots.  The
# getter is the slot descriptor's own C-level ``__get__``, so a read runs
# no Python frame (a hop reads ``payload`` and ``pp`` several times);
# only the writes — two or three per parked packet — pay for a setter.
Packet.payload = property(Packet._payload.__get__, _set_payload)
Packet.pp = property(Packet._pp.__get__, _set_pp)
Packet.ip = property(Packet._ip.__get__)  # read-only: nothing re-seats a parsed IPv4 header
Packet.l4 = property(Packet._l4.__get__, _set_l4)
