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

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.netsim.eventloop": ("EventLoop",),
        "repro.netsim.link": ("Link",),
        "repro.netsim.nic": ("NicSpec", "NIC_10GE", "NIC_40GE"),
        "repro.netsim.pcie": ("PcieSpec",),
        "repro.netsim.switch_node": ("SwitchNode",),
        "repro.netsim.server_node": ("NfServerNode",),
        "repro.netsim.trafficgen_node": ("TrafficGenNode",),
        "repro.netsim.topology": ("Topology",),
    },
)
