"""5-tuple flow identities and deterministic flow generation.

The NFs in the paper (firewall ACLs, MazuNAT translation, Maglev hashing)
all key on the 5-tuple; the traffic generator synthesizes a configurable
number of distinct flows so those NFs exercise realistic table sizes.

A population is a function of its index, not a list: flow *i* is derived
from *i* alone (:meth:`FlowGenerator._make_flow`), so
:meth:`FlowGenerator.flows` hands out a :class:`FlowPopulation` that
builds a :class:`FiveTuple` the first time its slot is read and returns
that same object ever after.  A run therefore pays for the flows it
sends — a 320-frame campaign cell builds 320 of its 4096 flows, a long
run builds all of them exactly as an eager list would — and every
reader sees the values an eager ``[_make_flow(i) for i in range(n)]``
holds at the same indices.  The derivation repeats after
:data:`FLOW_PERIOD` indices, which is therefore the largest population
of *distinct* flows a generator can offer.
Generators with equal parameters share one slot list (:data:`FLOW_SLOTS`),
so a campaign worker's cells or a sweep's points build a flow once.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import WorkloadSpecError
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Address

#: A flow as five plain ints ``(src, dst, protocol, src_port, dst_port)``
#: — what the NAT and Maglev tables are keyed by, because it can be read
#: off a packet's headers without building a :class:`FiveTuple`.
FlowKey = Tuple[int, int, int, int, int]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Three FNV-1a steps with nothing to XOR in the last two: one multiply.
_FNV_PRIME_CUBED = _FNV_PRIME ** 3 & _MASK64

#: The trusted constructor's two steps (:meth:`FlowGenerator._make_flow`).
_new = object.__new__
_set = object.__setattr__

_pack_prefix = struct.Struct("<3I").pack
_pack_ports = struct.Struct("<2I").pack


def _fnv1a(value: int, data: bytes) -> int:
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def flow_hash_prefix(src: int, dst: int, protocol: int) -> int:
    """The :func:`flow_hash` state after a flow's first 12 bytes.

    Pass it to :func:`flow_hash_ports` with the flow's ports to finish
    the hash; flows that share addresses and protocol share this state.
    """
    return _fnv1a(_FNV_OFFSET, _pack_prefix(src, dst, protocol))


def flow_hash_ports(state: int, src_port: int, dst_port: int) -> int:
    """Finish :func:`flow_hash` from a :func:`flow_hash_prefix` *state*.

    A port below 2**16 packs to two bytes and two zeros.  XORing a zero
    changes nothing, so once the port's second byte is XORed in, its
    step and the two zero steps are three multiplies in a row: one by
    P**3 mod 2**64.  Any other
    value (negative, or 2**16 and above) takes the byte loop, which
    hashes a 32-bit port exactly and raises ``struct.error`` for what
    does not pack, as :func:`flow_hash` always did.
    """
    if 0 <= (src_port | dst_port) <= 0xFFFF:
        state = ((state ^ (src_port & 0xFF)) * _FNV_PRIME) & _MASK64
        state = ((state ^ (src_port >> 8)) * _FNV_PRIME_CUBED) & _MASK64
        state = ((state ^ (dst_port & 0xFF)) * _FNV_PRIME) & _MASK64
        return ((state ^ (dst_port >> 8)) * _FNV_PRIME_CUBED) & _MASK64
    return _fnv1a(state, _pack_ports(src_port, dst_port))


def flow_hash(key: FlowKey) -> int:
    """A deterministic 64-bit hash independent of Python's seeded hash().

    Maglev needs a hash that is stable across runs so that experiments
    are reproducible; Python's builtin ``hash`` is salted per process,
    so the fields are mixed here: FNV-1a over each field's four
    low-order bytes, least significant first.

    FNV-1a is a left fold over those 20 bytes — each step reads only the
    running state and the next byte — so folding the first 12 (addresses
    and protocol, :func:`flow_hash_prefix`) and continuing from that
    state over the last 8 (the ports, :func:`flow_hash_ports`) is the
    same fold, split in two.  A caller that sees many flows between the
    same hosts can keep the prefix state and pay only for the ports.
    """
    src, dst, protocol, src_port, dst_port = key
    return flow_hash_ports(flow_hash_prefix(src, dst, protocol), src_port, dst_port)


@dataclass(frozen=True)
class FiveTuple:
    """The classic connection 5-tuple."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    protocol: int
    src_port: int
    dst_port: int

    def key(self) -> FlowKey:
        """The flow as five plain ints (see :data:`FlowKey`)."""
        return (
            self.src_ip.value,
            self.dst_ip.value,
            self.protocol,
            self.src_port,
            self.dst_port,
        )

    def stable_hash(self) -> int:
        """:func:`flow_hash` of this flow."""
        return flow_hash(self.key())

    def __str__(self) -> str:
        proto = {PROTO_UDP: "udp", PROTO_TCP: "tcp"}.get(self.protocol, str(self.protocol))
        return f"{self.src_ip}:{self.src_port} -> {self.dst_ip}:{self.dst_port} ({proto})"


#: What :meth:`FlowGenerator._make_flow` spreads a population over:
#: source hosts, destination hosts, source ports, destination ports.
_SRC_HOSTS = 65_000
_DST_HOSTS = 250
_SRC_PORTS = 50_000
_DST_PORTS = 16

#: Indices after which the derivation repeats (650,000): flow
#: ``i + FLOW_PERIOD`` equals flow ``i``, so no generator holds more
#: distinct flows than this and a larger ``flow_count`` is refused.
FLOW_PERIOD = math.lcm(_SRC_HOSTS, _DST_HOSTS, _SRC_PORTS, _DST_PORTS)

#: Generator parameters (``flow_count`` and all ``_make_flow`` reads) ->
#: the slot list their generators share.  Bound: ``_FLOW_SLOTS_LIMIT``
#: slots; a list that would pass it empties the memo first (populations
#: handed out keep theirs; later ones build their flows again).
FLOW_SLOTS: Dict[tuple, List[Optional[FiveTuple]]] = {}
_FLOW_SLOTS_LIMIT = 1 << 18


def check_flow_count(flow_count: int) -> None:
    """Refuse a population no generator can fill with distinct flows."""
    if not 0 < flow_count <= FLOW_PERIOD:
        raise WorkloadSpecError(
            f"flow_count must lie in 1..{FLOW_PERIOD} (flows repeat past "
            f"FLOW_PERIOD), got {flow_count}"
        )


class FlowPopulation(Sequence):
    """A generator's flows as a lazy, read-only sequence.

    Slot *i* is built by ``make(i)`` on its first read and is the *same
    object* on every later one, whichever reader asks — an index, a
    negative index, iteration, :meth:`wrap` or a slice.  A slice is a
    view: it shares the slots of the population it was cut from, so a
    flow read through either is built once.

    ``slots`` is the backing list of the whole population (``None`` where
    nothing has been read yet), shared by every generator with the same
    parameters (:data:`FLOW_SLOTS`).  A per-packet loop over an unsliced
    population may read ``slots[i]`` itself and come here only on
    ``None`` (:meth:`repro.traffic.pktgen.PacketFactory.next_packet`).
    """

    __slots__ = ("_make", "slots", "_indices")

    def __init__(
        self,
        make: Callable[[int], FiveTuple],
        slots: List[Optional[FiveTuple]],
        indices: range,
    ) -> None:
        self._make = make
        self.slots = slots
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FlowPopulation(self._make, self.slots, self._indices[index])
        slot = self._indices[index]
        flow = self.slots[slot]
        if flow is None:
            flow = self.slots[slot] = self._make(slot)
        return flow

    def wrap(self, index: int) -> FiveTuple:
        """Flow ``index`` modulo the population size (the round-robin read)."""
        return self[index % len(self._indices)]


class FlowGenerator:
    """Generate a deterministic population of 5-tuple flows.

    Parameters
    ----------
    flow_count:
        Number of distinct flows to cycle through, at most
        :data:`FLOW_PERIOD`.
    src_subnet / dst_subnet:
        Dotted-quad bases; flows spread source addresses across the
        source subnet and destinations across the destination subnet.
    protocol:
        IP protocol for every flow (UDP by default, as in the paper).
    base_src_port / base_dst_port:
        Starting L4 ports; every port the population derives from them
        must fit in 16 bits.

    Construction validates and builds nothing; :meth:`flows` is lazy
    (see :class:`FlowPopulation`).  Readers of one generator — both
    deployments of a compare, say — share one population, and
    generators with equal parameters share its slots
    (:data:`FLOW_SLOTS`), so a flow is built at most once per process.
    """

    def __init__(
        self,
        flow_count: int = 1024,
        src_subnet: str = "10.1.0.0",
        dst_subnet: str = "10.2.0.0",
        protocol: int = PROTO_UDP,
        base_src_port: int = 10000,
        base_dst_port: int = 80,
    ) -> None:
        check_flow_count(flow_count)
        for name, base, ports in (
            ("base_src_port", base_src_port, min(flow_count, _SRC_PORTS)),
            ("base_dst_port", base_dst_port, _DST_PORTS),
        ):
            if not 0 <= base <= 0x10000 - ports:
                raise WorkloadSpecError(
                    f"{name} out of range: {ports} ports from {base} "
                    f"do not fit in 0..65535"
                )
        self.flow_count = flow_count
        self._src_base = IPv4Address.from_string(src_subnet).value
        self._dst_base = IPv4Address.from_string(dst_subnet).value
        self.protocol = protocol
        self.base_src_port = base_src_port
        self.base_dst_port = base_dst_port
        self._flows: Optional[FlowPopulation] = None

    def flows(self) -> FlowPopulation:
        """Return this generator's (one, lazy) flow population."""
        if self._flows is None:
            count = self.flow_count
            key = (count, self._src_base, self._dst_base, self.protocol,
                   self.base_src_port, self.base_dst_port)
            if key not in FLOW_SLOTS:
                if sum(map(len, FLOW_SLOTS.values())) + count > _FLOW_SLOTS_LIMIT:
                    FLOW_SLOTS.clear()
                FLOW_SLOTS[key] = [None] * count
            self._flows = FlowPopulation(self._make_flow, FLOW_SLOTS[key], range(count))
        return self._flows

    def flow(self, index: int) -> FiveTuple:
        """Return flow *index* (mod the population size)."""
        return self.flows().wrap(index)

    def _make_flow(self, index: int) -> FiveTuple:
        """Flow *index*, built from trusted values.

        The frozen dataclasses are filled field by field, in declaration
        order, without their ``__init__`` / ``__post_init__``: the
        addresses are masked to 32 bits and the ports were range-checked
        at construction, so the skipped checks cannot fail, and the
        result equals (and hashes as) the validated
        ``FiveTuple(IPv4Address(..), ..)``.
        """
        src_ip = _new(IPv4Address)
        _set(src_ip, "value", (self._src_base + (index % _SRC_HOSTS) + 1) & 0xFFFFFFFF)
        dst_ip = _new(IPv4Address)
        _set(dst_ip, "value", (self._dst_base + (index % _DST_HOSTS) + 1) & 0xFFFFFFFF)
        flow = _new(FiveTuple)
        _set(flow, "src_ip", src_ip)
        _set(flow, "dst_ip", dst_ip)
        _set(flow, "protocol", self.protocol)
        _set(flow, "src_port", self.base_src_port + (index % _SRC_PORTS))
        _set(flow, "dst_port", self.base_dst_port + (index % _DST_PORTS))
        return flow
