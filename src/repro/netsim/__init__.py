"""Discrete-event network simulation substrate.

The paper's testbed is a traffic generator, a Tofino switch and one or
more NF servers connected by 10/40 GbE links.  This subpackage provides
the discrete-event machinery to reproduce that testbed in simulation:
an event loop, links with serialization/propagation delay and finite
egress buffers, NIC and PCIe models, a switch node that runs a
:class:`~repro.core.program.SwitchProgram`, an NF-server node built on
:class:`~repro.nf.server.NfServerModel`, a PktGen-style traffic source /
sink, and the topology that wires them up for any number of servers.
"""

from repro.netsim.eventloop import EventLoop
from repro.netsim.link import Link
from repro.netsim.nic import NicPort, NicSpec, NIC_10GE, NIC_40GE
from repro.netsim.pcie import PcieBus, PcieSpec
from repro.netsim.server_node import NfServerNode
from repro.netsim.switch_node import SwitchNode
from repro.netsim.topology import Topology
from repro.netsim.trafficgen_node import TrafficGenNode

__all__ = [
    "EventLoop",
    "Link",
    "NicSpec",
    "NicPort",
    "NIC_10GE",
    "NIC_40GE",
    "PcieBus",
    "PcieSpec",
    "SwitchNode",
    "NfServerNode",
    "TrafficGenNode",
    "Topology",
]
