"""PktGen: configuration and packet factory for the traffic generator.

The paper's traffic generator is DPDK PktGen saturating the NF server
with UDP packets through two switch ports.  :class:`PktGenConfig`
captures the offered rate, burstiness and workload;
:class:`PacketFactory` builds the actual frames deterministically from a
seed so experiments are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import WorkloadSpecError, require_positive_finite
from repro.packet.ipv4 import IPv4Address
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet
from repro.packet.pool import FramePool
from repro.traffic.workload import BLACKLISTED_SUBNET, Workload

#: A reusable payload pattern; slices of it fill every generated frame so
#: the generator does not allocate fresh payload bytes per packet.
_PAYLOAD_PATTERN = bytes(range(256)) * 8

_BLACKLIST_BASE = IPv4Address.from_string(BLACKLISTED_SUBNET).value


def blacklisted_source(index: int) -> IPv4Address:
    """The *index*-th address inside the firewall's blacklisted subnet."""
    return IPv4Address(_BLACKLIST_BASE + (index % 65_000) + 1)


def build_udp_frame(
    size: int,
    flow,
    src_mac: str,
    dst_mac: str,
    src_ip: Optional[str] = None,
) -> Packet:
    """Build one UDP frame of *size* wire bytes for *flow*.

    The reference engine's builder, which every frame producer falls
    back to when ``pooled`` is off: payload bytes are slices of the
    reusable pattern, and *src_ip* (when given) overrides the flow's
    source for blacklist steering.
    """
    size = max(size, ETHERNET_UDP_HEADER_BYTES)
    payload_len = size - ETHERNET_UDP_HEADER_BYTES
    payload = _PAYLOAD_PATTERN[:payload_len]
    if len(payload) < payload_len:
        payload = (_PAYLOAD_PATTERN * (payload_len // len(_PAYLOAD_PATTERN) + 1))[:payload_len]
    return Packet.udp(
        src_mac=src_mac,
        dst_mac=dst_mac,
        src_ip=src_ip if src_ip is not None else str(flow.src_ip),
        dst_ip=str(flow.dst_ip),
        src_port=flow.src_port,
        dst_port=flow.dst_port,
        payload=payload,
    )


@dataclass
class PktGenConfig:
    """Offered-load description for one traffic generator.

    Attributes
    ----------
    rate_gbps:
        Offered load in gigabits of L2 frame bytes per second.
    workload:
        Frame sizes, flow population and blacklist fraction.
    burst_size:
        Packets emitted back-to-back per generation event (DPDK PktGen
        transmits in bursts; burstiness also shapes queueing downstream).
    seed:
        Seed for the size/flow sampling RNG.
    src_mac / dst_mac:
        Ethernet addresses stamped on generated frames (the destination
        is the traffic generator's own sink MAC so merged packets return
        to it, as in the paper's measurement loop).
    pooled:
        Build frames through a :class:`~repro.packet.pool.FramePool`
        (header fields stored directly, no per-flow state) instead of
        re-parsing header strings per packet; every producer of frames — this
        module's :class:`PacketFactory`, the generative sources, the
        closed-loop transport — honours it.  The frames are identical
        (same RNG draws, same packet-id sequence, same wire bytes).  The
        experiment runner pools on its default engine and parses on the
        reference one.
    """

    rate_gbps: float
    workload: Workload
    burst_size: int = 32
    seed: int = 42
    src_mac: str = "02:00:00:00:00:01"
    dst_mac: str = "02:00:00:00:00:02"
    pooled: bool = False

    def __post_init__(self) -> None:
        require_positive_finite("rate_gbps", self.rate_gbps, WorkloadSpecError)
        if self.burst_size <= 0:
            raise WorkloadSpecError("burst_size must be positive")


class PacketFactory:
    """Deterministically builds frames according to a :class:`PktGenConfig`."""

    def __init__(self, config: PktGenConfig) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        # The population is lazy; ``_slots`` is its backing list, read
        # directly per packet (see FlowPopulation).
        self._flows = config.workload.flows.flows()
        self._slots = self._flows.slots
        self._flow_cursor = 0
        self._pool = (
            FramePool(config.src_mac, config.dst_mac) if config.pooled else None
        )
        self.packets_built = 0

    def next_packet(self) -> Packet:
        """Build the next frame (size, flow and blacklist marking).

        The pooled and string-parsing paths consume the RNG identically
        and emit byte-identical frames with the same packet-id sequence,
        so toggling ``config.pooled`` cannot change simulation results.
        """
        workload = self.config.workload
        size = workload.sizes.sample(self._rng)
        cursor = self._flow_cursor
        flow = self._slots[cursor]
        if flow is None:
            flow = self._flows[cursor]
        self._flow_cursor = (cursor + 1) % len(self._slots)

        # Steer a sampled fraction of packets into the firewall's
        # blacklisted subnet.
        blacklisted = (
            workload.blacklisted_fraction > 0
            and self._rng.random() < workload.blacklisted_fraction
        )
        if self._pool is not None:
            packet = self._pool.frame(
                size,
                flow,
                src_ip=blacklisted_source(self.packets_built) if blacklisted else None,
            )
        else:
            packet = build_udp_frame(
                size,
                flow,
                src_mac=self.config.src_mac,
                dst_mac=self.config.dst_mac,
                src_ip=str(blacklisted_source(self.packets_built)) if blacklisted else None,
            )
        self.packets_built += 1
        return packet
