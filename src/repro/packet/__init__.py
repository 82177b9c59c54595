"""Packet substrate: header codecs, packets, checksums, PCAP and flows.

The PayloadPark prototype operates on Ethernet/IPv4/UDP (and TCP) frames.
This subpackage provides byte-accurate header encode/decode, a ``Packet``
container used throughout the simulator, Internet checksums and the CRC
used to validate the PayloadPark tag, a minimal libpcap-format reader and
writer (the paper replays PCAP files), and 5-tuple flow helpers.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.packet.ethernet": ("EthernetHeader", "MacAddress"),
        "repro.packet.ipv4": ("IPv4Header", "IPv4Address"),
        "repro.packet.udp": ("UdpHeader",),
        "repro.packet.tcp": ("TcpHeader",),
        "repro.packet.packet": ("Packet", "ETHERNET_UDP_HEADER_BYTES"),
        "repro.packet.checksum": ("internet_checksum", "verify_internet_checksum"),
        "repro.packet.crc": ("crc16", "crc32"),
        "repro.packet.pcap": ("PcapReader", "PcapWriter", "read_pcap", "write_pcap"),
        "repro.packet.flows": ("FiveTuple", "FlowGenerator"),
    },
)
