"""The switch ASIC: pipes, ports and program installation.

Models a 6.4 Tbps Tofino-class chip: 64 front-panel ports at 100 Gbps,
divided into 4 groups of 16, each group served by its own pipe with
private compute and stateful-memory resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.packet.packet import Packet
from repro.switchsim.context import PipelinePacket
from repro.switchsim.pipe import Pipe
from repro.switchsim.resources import ResourceBudget


@dataclass(frozen=True)
class AsicConfig:
    """Dimensions of the simulated ASIC."""

    pipe_count: int = 4
    ports_per_pipe: int = 16
    stages_per_pipe: int = 12
    recirculation_limit: int = 1
    budget: ResourceBudget = ResourceBudget()

    @property
    def port_count(self) -> int:
        """Total number of front-panel ports."""
        return self.pipe_count * self.ports_per_pipe


class TofinoAsic:
    """A programmable switch ASIC made of independent pipes."""

    def __init__(self, config: Optional[AsicConfig] = None) -> None:
        self.config = config or AsicConfig()
        self.pipes: List[Pipe] = [
            Pipe(
                index=i,
                stage_count=self.config.stages_per_pipe,
                budget=self.config.budget,
                recirculation_limit=self.config.recirculation_limit,
            )
            for i in range(self.config.pipe_count)
        ]
        self.processed_packets = 0
        self.dropped_packets = 0
        self.drop_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Port topology
    # ------------------------------------------------------------------ #

    def pipe_for_port(self, port: int) -> Pipe:
        """Return the pipe that owns front-panel *port*."""
        if not 0 <= port < self.config.port_count:
            raise ValueError(
                f"port {port} out of range; this ASIC has {self.config.port_count} ports"
            )
        return self.pipes[port // self.config.ports_per_pipe]

    def ports_of_pipe(self, pipe_index: int) -> List[int]:
        """Front-panel port numbers served by pipe *pipe_index*."""
        if not 0 <= pipe_index < self.config.pipe_count:
            raise ValueError(f"pipe {pipe_index} out of range")
        first = pipe_index * self.config.ports_per_pipe
        return list(range(first, first + self.config.ports_per_pipe))

    def same_pipe(self, port_a: int, port_b: int) -> bool:
        """True when both ports share a pipe (and hence stateful memory)."""
        return self.pipe_for_port(port_a) is self.pipe_for_port(port_b)

    # ------------------------------------------------------------------ #
    # Packet processing
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet, ingress_port: int) -> PipelinePacket:
        """Run *packet* through the pipe owning *ingress_port*."""
        pipe = self.pipe_for_port(ingress_port)
        ctx = pipe.process(packet, ingress_port)
        self.processed_packets += 1
        if ctx.dropped:
            self.dropped_packets += 1
            self.drop_reasons[ctx.drop_reason] = self.drop_reasons.get(ctx.drop_reason, 0) + 1
        return ctx
