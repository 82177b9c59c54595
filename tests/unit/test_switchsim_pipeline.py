"""Unit tests for MATs, stages, pipelines, pipes and the ASIC."""

import pytest

from repro.packet.packet import Packet
from repro.switchsim.asic import AsicConfig, TofinoAsic
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipe import Pipe
from repro.switchsim.pipeline import Pipeline, PortPlan


def _ctx(port=0):
    return PipelinePacket(packet=Packet.udp(total_size=128), ingress_port=port)


class TestMatchActionTable:
    def test_unconditional_table_always_fires(self):
        hits = []
        table = MatchActionTable("t", action=lambda ctx: hits.append(ctx.ingress_port))
        assert table.apply(_ctx(3))
        assert hits == [3]
        assert table.hit_count == 1

    def test_match_predicate_gates_action(self):
        table = MatchActionTable(
            "t", match=lambda ctx: ctx.ingress_port == 1, action=lambda ctx: ctx.forward_to(9)
        )
        ctx = _ctx(0)
        assert not table.apply(ctx)
        assert ctx.egress_port is None
        assert table.miss_count == 1

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
        assert pipeline.sram_bytes_capacity() > pipeline.sram_bytes_used()


class TestPortPlan:
    def _pipeline(self):
        pipeline = Pipeline(stage_count=2)
        tables = [
            pipeline.stage(stage).add_table(
                MatchActionTable(name, match=lambda ctx: False, action=lambda ctx: None)
            )
            for stage, name in ((0, "a"), (0, "b"), (1, "c"))
        ]
        return pipeline, tables

    def _counts(self, tables):
        return [(table.hit_count, table.miss_count) for table in tables]

    def test_tallies_settle_into_the_walk_the_outcome_describes(self):
        pipeline, (a, b, c) = self._pipeline()
        counts = [0, 0]
        two_passes = [([a, c], None), ([c], None)]
        dropped_at_b = [([b], b)]  # b hits and drops: c is never reached
        deltas = [pipeline.walk(two_passes), pipeline.walk(dropped_at_b)]
        PortPlan(pipeline, lambda packet, port: None, counts, deltas)
        counts[0] += 3
        counts[1] += 2
        assert self._counts([a, b, c]) == [(3, 5), (2, 6), (6, 0)]
        assert counts == [0, 0]
        assert self._counts([a, b, c]) == [(3, 5), (2, 6), (6, 0)]  # settled once

    def test_table_install_settles_then_outdates_the_plan(self):
        pipeline, (a, b, c) = self._pipeline()
        counts = [4]
        deltas = [pipeline.walk([([a], None)])]
        plan = PortPlan(pipeline, lambda packet, port: None, counts, deltas)
        late = pipeline.stage(1).add_table(MatchActionTable("late", action=lambda ctx: None))
        assert plan.version != pipeline.version
        assert self._counts([a, b, c, late]) == [(4, 0), (0, 4), (0, 4), (0, 0)]


class TestPipeRecirculation:
    def test_recirculation_limit_enforced(self):
        pipe = Pipe(index=0, stage_count=2, recirculation_limit=1)
        pipe.pipeline.stage(0).add_table(
            MatchActionTable("loop", action=lambda ctx: ctx.request_recirculation())
        )
        ctx = pipe.process(Packet.udp(total_size=100), ingress_port=0)
        assert ctx.recirculations == 1

    def test_recirculation_latency_reported(self):
        pipe = Pipe(index=0, stage_count=2, recirculation_limit=2)
        ctx = _ctx()
        ctx.recirculations = 2
        assert pipe.recirculation_latency_ns(ctx) == 2 * Pipe.RECIRCULATION_LATENCY_NS

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
        assert asic.same_pipe(0, 15)
        assert not asic.same_pipe(15, 16)

    def test_ports_of_pipe(self):
        asic = TofinoAsic()
        assert asic.ports_of_pipe(2) == list(range(32, 48))

    def test_out_of_range_port_rejected(self):
        asic = TofinoAsic()
        with pytest.raises(ValueError):
            asic.pipe_for_port(64)
        with pytest.raises(ValueError):
            asic.ports_of_pipe(4)

    def test_process_counts_drops(self):
        config = AsicConfig(pipe_count=1, ports_per_pipe=4, stages_per_pipe=2)
        asic = TofinoAsic(config)
        asic.pipes[0].pipeline.stage(0).add_table(
            MatchActionTable("drop-all", action=lambda ctx: ctx.drop("policy"))
        )
        asic.process(Packet.udp(total_size=100), ingress_port=1)
        assert asic.dropped_packets == 1
        assert asic.drop_reasons == {"policy": 1}
