"""Unit tests for MATs, stages, pipelines, pipes and the ASIC."""

import pytest

from repro.packet.packet import Packet
from repro.switchsim.asic import AsicConfig, TofinoAsic
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipe import Pipe
from repro.switchsim.pipeline import Pipeline


def _ctx(port=0):
    return PipelinePacket(packet=Packet.udp(total_size=128), ingress_port=port)


class TestMatchActionTable:
    def test_unconditional_table_always_fires(self):
        hits = []
        table = MatchActionTable("t", action=lambda ctx: hits.append(ctx.ingress_port))
        assert table.apply(_ctx(3))
        assert hits == [3]

    def test_match_predicate_gates_action(self):
        table = MatchActionTable(
            "t", match=lambda ctx: ctx.ingress_port == 1, action=lambda ctx: ctx.forward_to(9)
        )
        ctx = _ctx(0)
        assert not table.apply(ctx)
        assert ctx.egress_port is None

    def test_dropped_packet_skips_table(self):
        table = MatchActionTable("t", action=lambda ctx: ctx.forward_to(1))
        ctx = _ctx()
        ctx.drop("test")
        assert not table.apply(ctx)


class TestPipeline:
    def test_stage_count_fixed(self):
        pipeline = Pipeline(stage_count=3)
        with pytest.raises(IndexError):
            pipeline.stage(3)

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            Pipeline(stage_count=0)

    def test_stages_execute_in_order(self):
        pipeline = Pipeline(stage_count=3)
        order = []
        for index in range(3):
            pipeline.stage(index).add_table(
                MatchActionTable(f"t{index}", action=lambda ctx, i=index: order.append(i))
            )
        pipeline.process(_ctx())
        assert order == [0, 1, 2]

    def test_drop_stops_later_stages(self):
        pipeline = Pipeline(stage_count=2)
        pipeline.stage(0).add_table(MatchActionTable("drop", action=lambda ctx: ctx.drop("x")))
        seen = []
        pipeline.stage(1).add_table(MatchActionTable("later", action=lambda ctx: seen.append(1)))
        pipeline.process(_ctx())
        assert seen == []

    def test_sram_totals(self):
        pipeline = Pipeline(stage_count=2)
        pipeline.stage(0).add_register_array("a", size=8, width_bits=32)
        assert pipeline.sram_bytes_used() == 32


class TestPortPlan:
    def test_table_install_calls_the_plan_owners(self):
        pipeline = Pipeline(stage_count=2)
        plans = {0: lambda packet, port: None}
        pipeline.on_table_added.append(plans.clear)
        pipeline.stage(1).add_table(MatchActionTable("late", action=lambda ctx: None))
        assert plans == {}


class TestPipeRecirculation:
    def test_recirculation_limit_enforced(self):
        pipe = Pipe(index=0, stage_count=2, recirculation_limit=1)
        pipe.pipeline.stage(0).add_table(
            MatchActionTable("loop", action=lambda ctx: ctx.request_recirculation())
        )
        ctx = pipe.process(Packet.udp(total_size=100), ingress_port=0)
        assert ctx.recirculations == 1

    def test_decision_reads_the_finished_record(self):
        pipe = Pipe(index=0, stage_count=2, recirculation_limit=2)
        ctx = _ctx()
        assert pipe.decision(ctx) == (None, 0, "no-egress-decision")
        ctx.forward_to(5)
        ctx.recirculations = 2
        assert pipe.decision(ctx) == (5, 2 * Pipe.RECIRCULATION_LATENCY_NS, None)
        ctx.drop("policy")
        assert pipe.decision(ctx) == (None, 0, "policy")

    def test_parser_hook_runs_on_each_pass(self):
        pipe = Pipe(index=0, stage_count=1, recirculation_limit=1)
        passes = []
        pipe.parser.hook = lambda ctx: passes.append(ctx.recirculations)
        pipe.pipeline.stage(0).add_table(
            MatchActionTable(
                "once",
                match=lambda ctx: ctx.recirculations == 0,
                action=lambda ctx: ctx.request_recirculation(),
            )
        )
        pipe.process(Packet.udp(total_size=100), ingress_port=0)
        assert passes == [0, 1]


class TestTofinoAsic:
    def test_port_to_pipe_mapping(self):
        asic = TofinoAsic()
        assert asic.pipe_for_port(0) is asic.pipes[0]
        assert asic.pipe_for_port(17) is asic.pipes[1]
        assert asic.pipe_for_port(15) is asic.pipes[0]
        assert asic.pipe_for_port(47) is asic.pipes[2]

    def test_out_of_range_port_rejected(self):
        asic = TofinoAsic()
        with pytest.raises(ValueError):
            asic.pipe_for_port(64)

    def test_process_reports_drops(self):
        config = AsicConfig(pipe_count=1, ports_per_pipe=4, stages_per_pipe=2)
        asic = TofinoAsic(config)
        asic.pipes[0].pipeline.stage(0).add_table(
            MatchActionTable("drop-all", action=lambda ctx: ctx.drop("policy"))
        )
        ctx = asic.process(Packet.udp(total_size=100), ingress_port=1)
        assert (ctx.dropped, ctx.drop_reason) == (True, "policy")
