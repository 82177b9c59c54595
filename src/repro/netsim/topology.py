"""The testbed topology: one switch, N NF servers, one traffic generator each.

One layout covers the whole evaluation.  Every NF-server binding of the
switch program gets a PktGen connected through the binding's ingress
ports (two, so the generator can overdrive the single server-facing
link) and an NF server on its NF port.  Fig. 5's single server is the
N = 1 case; §6.2.3 attaches up to eight, two per pipe, each with its own
generator and its own slice of the reserved switch memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import NfServerBinding
from repro.core.program import SwitchProgram
from repro.netsim.eventloop import EventLoop
from repro.netsim.link import Link
from repro.netsim.nic import NicSpec, NIC_10GE
from repro.netsim.server_node import NfServerNode
from repro.netsim.switch_node import SwitchNode
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.nf.server import NfServerModel
from repro.traffic.pktgen import PktGenConfig
from repro.workloads.base import TrafficModel

#: Egress-buffer size of a switch port (bytes); the baseline's latency
#: cliff at link saturation comes from this buffer filling up.
PORT_BUFFER_BYTES = 256 * 1024


@dataclass
class ServerAttachment:
    """Everything attached to one NF-server binding."""

    binding: NfServerBinding
    pktgen: TrafficGenNode
    server: NfServerNode
    gen_links: List[Link]
    server_link: Link


class Topology:
    """The switch plus one :class:`ServerAttachment` per program binding.

    *wiring* (NIC, generator link speed, traffic model, cost-model
    caching) is passed to every :meth:`attach_server` call.  Server *i*
    draws its service jitter from RNG seed ``i + 1``; every golden table
    depends on those seeds.
    """

    def __init__(
        self,
        env: EventLoop,
        program: SwitchProgram,
        server_models: Sequence[NfServerModel],
        pktgen_configs: Sequence[PktGenConfig],
        **wiring,
    ) -> None:
        bindings = program.bindings
        if not (len(bindings) == len(server_models) == len(pktgen_configs)):
            raise ValueError(
                "need exactly one server model and one PktGen config per binding"
            )
        self.env = env
        self.program = program
        self.switch = SwitchNode(env, program)
        self.attachments: List[ServerAttachment] = []
        #: Optional chaos driver (see repro.faults); attached by the
        #: experiment runner when the scenario carries a ``faults`` spec
        #: and started alongside the traffic generators.
        self.fault_injector = None
        for index, (binding, model, config) in enumerate(
            zip(bindings, server_models, pktgen_configs)
        ):
            self.attach_server(binding, model, config, seed=index + 1, **wiring)

    def attach_server(
        self,
        binding: NfServerBinding,
        server_model: NfServerModel,
        pktgen_config: PktGenConfig,
        nic_spec: NicSpec = NIC_10GE,
        gen_link_gbps: float = 100.0,
        seed: int = 1,
        traffic_model: Optional[TrafficModel] = None,
        cache_cost_model: bool = False,
    ) -> ServerAttachment:
        """Wire one binding: a PktGen on the ingress ports, a server on the NF port."""
        pktgen = TrafficGenNode(
            self.env,
            pktgen_config,
            tx_ports=list(range(len(binding.ingress_ports))),
            name=f"pktgen-{binding.name}",
            traffic_model=traffic_model,
        )
        gen_links = []
        for local_port, switch_port in enumerate(binding.ingress_ports):
            gen_links.append(
                Link(
                    self.env,
                    pktgen,
                    local_port,
                    self.switch,
                    switch_port,
                    bandwidth_gbps=gen_link_gbps,
                    buffer_bytes=PORT_BUFFER_BYTES,
                    name=f"{binding.name}-gen{local_port}",
                )
            )
        server = NfServerNode(
            self.env,
            server_model,
            nic_spec=nic_spec,
            name=f"server-{binding.name}",
            switch_port=0,
            seed=seed,
            cache_cost_model=cache_cost_model,
        )
        server_link = Link(
            self.env,
            server,
            0,
            self.switch,
            binding.nf_port,
            bandwidth_gbps=nic_spec.speed_gbps,
            buffer_bytes=PORT_BUFFER_BYTES,
            name=f"{binding.name}-server",
        )
        attachment = ServerAttachment(
            binding=binding,
            pktgen=pktgen,
            server=server,
            gen_links=gen_links,
            server_link=server_link,
        )
        self.attachments.append(attachment)
        return attachment

    # ------------------------------------------------------------------ #
    # Execution helpers
    # ------------------------------------------------------------------ #

    def attach_fault_injector(self, injector) -> None:
        """Register *injector* to be started with the traffic generators."""
        if self.fault_injector is not None:
            raise ValueError("a fault injector is already attached")
        self.fault_injector = injector

    def start_traffic(self, duration_ns: int) -> None:
        """Start every traffic generator (and any fault injector) for *duration_ns*.

        The injector arms before the generators so same-tick fault
        events execute ahead of same-tick traffic bursts — identically
        in the reference and fast event loops (both preserve scheduling
        order for ties).
        """
        if self.fault_injector is not None:
            self.fault_injector.start(duration_ns)
        for attachment in self.attachments:
            attachment.pktgen.start(duration_ns)

    def run_until(self, horizon_ns: int) -> None:
        """Advance the simulation to *horizon_ns*."""
        self.env.run_until(horizon_ns)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Counter snapshot of every generator, server and link (used for
        warm-up deltas)."""
        snap: Dict[str, Dict[str, float]] = {}
        for attachment in self.attachments:
            name = attachment.binding.name
            snap[f"pktgen.{name}"] = attachment.pktgen.stats()
            snap[f"server.{name}"] = attachment.server.stats()
            link_drops = attachment.server_link.total_drops()
            link_drops += sum(link.total_drops() for link in attachment.gen_links)
            fault_drops = attachment.server_link.fault_drops()
            fault_drops += sum(link.fault_drops() for link in attachment.gen_links)
            snap[f"links.{name}"] = {
                "dropped_frames": float(link_drops),
                "fault_drops": float(fault_drops),
            }
        return snap


#: The name the perf ledger's tracer resolves ``run_until`` through.
BaseTopology = Topology
