"""Traffic generation: packet-size distributions, workloads and PktGen.

The evaluation drives the testbed with a DPDK PktGen replaying either
fixed-size UDP packets or a PCAP that reproduces the enterprise
datacenter packet-size distribution of Benson et al. (bimodal, mean
882 bytes, ≈ 30 % of packets too small to be split).  This subpackage
provides those size distributions, the flow population, and the packet
factory used by the traffic-generator node.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.traffic.distributions": (
            "PacketSizeDistribution",
            "FixedSizeDistribution",
            "EmpiricalDistribution",
            "enterprise_datacenter_distribution",
        ),
        "repro.traffic.workload": ("Workload",),
        "repro.traffic.pktgen": ("PktGenConfig", "PacketFactory"),
    },
)
