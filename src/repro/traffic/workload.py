"""Workload descriptions: what kind of traffic PktGen offers.

A workload bundles the packet-size distribution, the flow population,
and the fraction of traffic aimed at addresses the firewall blacklists
(used in §6.2.4 to control the drop rate at the firewall).  Workloads
can also be loaded from or exported to PCAP files, mirroring how the
paper replays a PCAP to reproduce the enterprise traffic pattern.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from repro.packet.flows import FlowGenerator
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet
from repro.errors import WorkloadSpecError
from repro.traffic.distributions import (
    EmpiricalDistribution,
    FixedSizeDistribution,
    PacketSizeDistribution,
    enterprise_datacenter_distribution,
)

if TYPE_CHECKING:
    from repro.packet.pcap import PcapRecord

#: Source subnet that the Fig. 12 firewall blacklists; workloads steer
#: ``blacklisted_fraction`` of their packets into it.
BLACKLISTED_SUBNET = "192.168.0.0"


@dataclass
class Workload:
    """Traffic offered to the system under test.

    Attributes
    ----------
    name:
        Label used in reports.
    sizes:
        Frame-size distribution.
    flows:
        5-tuple population generator.
    blacklisted_fraction:
        Fraction of packets whose source address falls inside the
        firewall's blacklisted subnet (0 disables it).
    """

    name: str
    sizes: PacketSizeDistribution
    flows: FlowGenerator = field(default_factory=FlowGenerator)
    blacklisted_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.blacklisted_fraction <= 1.0:
            raise WorkloadSpecError("blacklisted_fraction must lie in [0, 1]")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def fixed_size(cls, size: int, flow_count: int = 1024,
                   blacklisted_fraction: float = 0.0) -> "Workload":
        """Fixed-size UDP packets (the §6.2.2 packet-size sweep)."""
        return cls(
            name=f"fixed-{size}B",
            sizes=FixedSizeDistribution(size),
            flows=FlowGenerator(flow_count=flow_count),
            blacklisted_fraction=blacklisted_fraction,
        )

    @classmethod
    def enterprise(cls, flow_count: int = 4096,
                   blacklisted_fraction: float = 0.0) -> "Workload":
        """The enterprise datacenter mix of Fig. 6."""
        return cls(
            name="enterprise-dc",
            sizes=enterprise_datacenter_distribution(),
            flows=FlowGenerator(flow_count=flow_count),
            blacklisted_fraction=blacklisted_fraction,
        )

    @classmethod
    def from_pcap(cls, path: Union[str, Path], flow_count: int = 1024,
                  name: Optional[str] = None) -> "Workload":
        """Build a workload whose size distribution matches a PCAP capture."""
        from repro.packet.pcap import read_pcap

        records = read_pcap(path)
        if not records:
            raise WorkloadSpecError(f"PCAP {path} contains no packets")
        counts = {}
        for record in records:
            size = max(len(record.data), 64)
            counts[size] = counts.get(size, 0) + 1
        total = sum(counts.values())
        points = [(size, count / total) for size, count in sorted(counts.items())]
        return cls(
            name=name or f"pcap:{Path(path).name}",
            sizes=EmpiricalDistribution(points),
            flows=FlowGenerator(flow_count=flow_count),
        )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def mean_frame_bytes(self) -> float:
        """Expected frame size in bytes."""
        return self.sizes.mean()

    def useful_fraction(self) -> float:
        """Fraction of offered bytes that are useful (headers), i.e. ideal goodput ratio."""
        return ETHERNET_UDP_HEADER_BYTES / self.mean_frame_bytes()

    # ------------------------------------------------------------------ #
    # Captures
    # ------------------------------------------------------------------ #

    def capture(self, packet_count: int, seed: int, rate_gbps: float) -> List[PcapRecord]:
        """*packet_count* representative frames as capture records.

        Frame *i* samples its size from the distribution and takes flow
        *i*; the timestamps correspond to back-to-back transmission at
        *rate_gbps*.  This mirrors the paper's methodology of replaying
        a synthetic PCAP whose sizes follow the Benson distribution.
        """
        from repro.packet.pcap import PcapRecord

        if packet_count <= 0:
            raise WorkloadSpecError("packet_count must be positive")
        rng = random.Random(seed)
        records: List[PcapRecord] = []
        timestamp = 0.0
        for index in range(packet_count):
            size = max(self.sizes.sample(rng), ETHERNET_UDP_HEADER_BYTES)
            flow = self.flows.flow(index)
            packet = Packet.udp(
                src_ip=str(flow.src_ip),
                dst_ip=str(flow.dst_ip),
                src_port=flow.src_port,
                dst_port=flow.dst_port,
                total_size=size,
            )
            ts_sec = int(timestamp)
            ts_usec = int(round((timestamp - ts_sec) * 1_000_000))
            records.append(PcapRecord(ts_sec, ts_usec, packet.to_bytes()))
            timestamp += size * 8 / (rate_gbps * 1e9)
        return records

    def export_pcap(self, path: Union[str, Path], packet_count: int = 1000,
                    seed: int = 7, rate_gbps: float = 10.0) -> int:
        """Write :meth:`capture`'s frames to a PCAP file at *path*."""
        from repro.packet.pcap import write_pcap

        records = self.capture(packet_count, seed, rate_gbps)
        return write_pcap(path, [(record.timestamp, record.data) for record in records])
