"""Unit tests for resource budgets, register arrays and the PHV layout."""

import pytest

from repro.switchsim.context import PipelinePacket
from repro.switchsim.phv import PhvLayout, PhvOverflow
from repro.switchsim.registers import RegisterAccessError, RegisterArray
from repro.switchsim.resources import (
    ResourceBudget,
    ResourceExhausted,
    ResourceReport,
    StageResources,
)
from repro.packet.packet import Packet


def _ctx():
    return PipelinePacket(packet=Packet.udp(total_size=128), ingress_port=0)


class TestStageResources:
    def test_sram_allocation_and_percent(self):
        stage = StageResources(budget=ResourceBudget(sram_bytes=1000))
        stage.allocate_sram(250)
        assert stage.sram_percent == pytest.approx(25.0)

    def test_sram_exhaustion_raises(self):
        stage = StageResources(budget=ResourceBudget(sram_bytes=100))
        with pytest.raises(ResourceExhausted):
            stage.allocate_sram(101, what="too-big")

    def test_negative_allocation_rejected(self):
        stage = StageResources()
        with pytest.raises(ValueError):
            stage.allocate_sram(-1)

    def test_vliw_and_crossbar_accounting(self):
        stage = StageResources(budget=ResourceBudget(vliw_slots=4, exact_crossbar_bits=32))
        stage.allocate_vliw(2)
        stage.allocate_crossbar(16)
        assert stage.vliw_percent == pytest.approx(50.0)
        assert stage.exact_crossbar_percent == pytest.approx(50.0)
        with pytest.raises(ResourceExhausted):
            stage.allocate_vliw(3)

    def test_tcam_and_ternary_crossbar(self):
        stage = StageResources(budget=ResourceBudget(tcam_entries=10, ternary_crossbar_bits=8))
        stage.allocate_tcam(5)
        stage.allocate_crossbar(4, ternary=True)
        assert stage.tcam_percent == pytest.approx(50.0)
        assert stage.ternary_crossbar_percent == pytest.approx(50.0)


class TestResourceReport:
    def test_report_averages_used_stages(self):
        budget = ResourceBudget(sram_bytes=1000)
        stages = [StageResources(budget=budget) for _ in range(4)]
        stages[0].allocate_sram(500)
        stages[1].allocate_sram(300)
        report = ResourceReport.from_stages(stages, phv_bits_used=100, phv_bits_budget=400)
        assert report.sram_peak_percent == pytest.approx(50.0)
        assert report.sram_avg_percent == pytest.approx(40.0)
        assert report.phv_percent == pytest.approx(25.0)

    def test_report_rejects_empty_stage_list(self):
        with pytest.raises(ValueError):
            ResourceReport.from_stages([], phv_bits_used=0, phv_bits_budget=1)


class TestRegisterArray:
    def test_read_write_via_context(self):
        array = RegisterArray("reg", size=4, width_bits=16)
        ctx = _ctx()
        array.write(ctx, 2, 99)
        assert array.peek(2) == 99
        assert array.read(_ctx(), 2) == 99

    def test_single_access_per_pass_enforced(self):
        array = RegisterArray("reg", size=4, width_bits=16)
        ctx = _ctx()
        array.read(ctx, 0)
        with pytest.raises(RegisterAccessError):
            array.write(ctx, 1, 5)

    def test_access_guard_resets_between_passes(self):
        array = RegisterArray("reg", size=4, width_bits=16)
        ctx = _ctx()
        array.read(ctx, 0)
        ctx.reset_pass_state()
        array.read(ctx, 0)  # no error

    def test_read_modify_write_returns_new_value(self):
        array = RegisterArray("counter", size=1, width_bits=16, initial=7)
        assert array.read_modify_write(_ctx(), 0, lambda v: v + 1) == 8
        assert array.peek(0) == 8

    def test_exchange_returns_old_value(self):
        array = RegisterArray("blocks", size=2, width_bits=128, initial=b"")
        ctx = _ctx()
        array.poke(0, b"hello")
        assert array.exchange(ctx, 0, b"") == b"hello"
        assert array.peek(0) == b""

    def test_out_of_range_index_rejected(self):
        array = RegisterArray("reg", size=2, width_bits=8)
        with pytest.raises(IndexError):
            array.peek(2)

    def test_sram_accounting_charges_stage(self):
        stage = StageResources(budget=ResourceBudget(sram_bytes=64))
        RegisterArray("small", size=4, width_bits=32, stage_resources=stage)
        assert stage.sram_bytes_used == 16
        with pytest.raises(ResourceExhausted):
            RegisterArray("big", size=100, width_bits=32, stage_resources=stage)

    def test_occupancy_counts_set_entries(self):
        array = RegisterArray("reg", size=4, width_bits=8, initial=0)
        array.poke(1, 5)
        array.poke(3, 9)
        assert array.occupancy() == 2

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            RegisterArray("bad", size=0, width_bits=8)
        with pytest.raises(ValueError):
            RegisterArray("bad", size=1, width_bits=0)


class TestPhvLayout:
    def test_declare(self):
        phv = PhvLayout(capacity_bits=100)
        phv.declare("ethernet", 40)
        assert phv.used_bits == 40

    def test_redeclare_same_width_is_noop(self):
        phv = PhvLayout(capacity_bits=100)
        phv.declare("field", 10)
        phv.declare("field", 10)
        assert phv.used_bits == 10

    def test_redeclare_different_width_rejected(self):
        phv = PhvLayout(capacity_bits=100)
        phv.declare("field", 10)
        with pytest.raises(ValueError):
            phv.declare("field", 20)

    def test_overflow_raises(self):
        phv = PhvLayout(capacity_bits=32)
        with pytest.raises(PhvOverflow):
            phv.declare("huge", 64)
