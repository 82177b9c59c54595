"""A pipe: parser + match-action pipeline + deparser + recirculation.

On the Tofino each pipe serves 16 of the 64 front-panel ports and owns
its stateful memory exclusively — pipes do not share register state,
which is why the paper requires the traffic ports and the NF-server port
to sit on the same pipe, and why the multi-server experiment slices
memory per pipe.
"""

from __future__ import annotations

from typing import Optional

from repro.packet.packet import Packet
from repro.switchsim.context import PipelinePacket
from repro.switchsim.parser import Deparser, Parser
from repro.switchsim.phv import PhvLayout
from repro.switchsim.pipeline import Decision, Pipeline
from repro.switchsim.resources import ResourceBudget, ResourceReport


class Pipe:
    """One of the ASIC's packet-processing pipes."""

    #: Latency added per recirculation pass, in nanoseconds.  The paper
    #: cites "10s of ns" per recirculation (§6.2.5); 50 ns is mid-range.
    RECIRCULATION_LATENCY_NS = 50

    def __init__(
        self,
        index: int,
        stage_count: int = 12,
        budget: Optional[ResourceBudget] = None,
        recirculation_limit: int = 1,
    ) -> None:
        self.index = index
        self.budget = budget or ResourceBudget()
        self.pipeline = Pipeline(stage_count=stage_count, budget=self.budget)
        self.parser = Parser()
        self.deparser = Deparser()
        self.phv = PhvLayout(capacity_bits=self.budget.phv_bits)
        self.recirculation_limit = recirculation_limit

    def process(self, packet: Packet, ingress_port: int) -> PipelinePacket:
        """Run *packet* through the pipe, honouring recirculation requests.

        Returns the finished :class:`PipelinePacket`;
        :meth:`decision` reads the switch's egress decision off it.
        """
        ctx = self.parser.parse(packet, ingress_port)
        self.pipeline.process(ctx)
        self.deparser.deparse(ctx)
        while ctx.recirculate_requested and not ctx.dropped:
            if ctx.recirculations >= self.recirculation_limit:
                ctx.recirculate_requested = False
                break
            ctx.recirculations += 1
            self.parser.reparse(ctx)
            self.pipeline.process(ctx)
            self.deparser.deparse(ctx)
        return ctx

    def decision(self, ctx: PipelinePacket) -> Decision:
        """The egress decision a finished walk's record describes.

        A dropped packet, or one no table routed (``no-egress-decision``),
        is ``(None, 0, reason)``; any other leaves by its egress port
        owing :data:`RECIRCULATION_LATENCY_NS` per recirculation pass.
        """
        if ctx.dropped:
            return None, 0, ctx.drop_reason
        if ctx.egress_port is None:
            return None, 0, "no-egress-decision"
        return ctx.egress_port, ctx.recirculations * self.RECIRCULATION_LATENCY_NS, None

    def resource_report(self) -> ResourceReport:
        """Summarize this pipe's resource utilization (Table 1 shape)."""
        return ResourceReport.from_stages(
            [stage.resources for stage in self.pipeline.stages],
            phv_bits_used=self.phv.used_bits,
            phv_bits_budget=self.phv.capacity_bits,
        )
