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
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import WorkloadSpecError
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Address

#: A flow as five plain ints ``(src, dst, protocol, src_port, dst_port)``
#: — what the NAT and Maglev tables are keyed by, because it can be read
#: off a packet's headers without building a :class:`FiveTuple`.
FlowKey = Tuple[int, int, int, int, int]

_pack_key = struct.Struct("<5I").pack


def flow_hash(key: FlowKey) -> int:
    """A deterministic 64-bit hash independent of Python's seeded hash().

    Maglev needs a hash that is stable across runs so that experiments
    are reproducible; Python's builtin ``hash`` is salted per process,
    so the fields are mixed here: FNV-1a over each field's four
    low-order bytes, least significant first.
    """
    value = 0xCBF29CE484222325
    for byte in _pack_key(*key):
        value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass(frozen=True)
class FiveTuple:
    """The classic connection 5-tuple."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    protocol: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FiveTuple":
        """Return the 5-tuple of the reverse direction of the flow."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

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
    nothing has been read yet).  A per-packet loop over an unsliced
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
    deployments of a compare, say — share one population, so a flow is
    built at most once per generator.
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
            self._flows = FlowPopulation(
                self._make_flow, [None] * self.flow_count, range(self.flow_count)
            )
        return self._flows

    def flow(self, index: int) -> FiveTuple:
        """Return flow *index* (mod the population size)."""
        return self.flows().wrap(index)

    def _make_flow(self, index: int) -> FiveTuple:
        src_ip = IPv4Address((self._src_base + (index % _SRC_HOSTS) + 1) & 0xFFFFFFFF)
        dst_ip = IPv4Address((self._dst_base + (index % _DST_HOSTS) + 1) & 0xFFFFFFFF)
        src_port = self.base_src_port + (index % _SRC_PORTS)
        dst_port = self.base_dst_port + (index % _DST_PORTS)
        return FiveTuple(
            src_ip=src_ip,
            dst_ip=dst_ip,
            protocol=self.protocol,
            src_port=src_port,
            dst_port=dst_port,
        )
