"""Fidelity tiers: segment planning, event translation, the tier controller.

Three layers, tested bottom-up:

* :func:`repro.fidelity.plan_steady_segments` is pure data-in/data-out —
  schedules, fault specs and arrival models in, steady intervals out;
* ``translate_events`` on both event loops is the clock-jump primitive —
  partition the queue at a cutoff, shift the kept past, preserve order;
* :class:`repro.fidelity.TierController` glues them into runs whose
  figure outputs the fluid-vs-packet metamorphic relation certifies
  (see ``tests/validation/test_metamorphic.py`` for that layer).
"""

import heapq
from dataclasses import replace

import pytest

from repro.errors import FidelityError
from repro.experiments.runner import (
    FIDELITY_MODES,
    DeploymentKind,
    ExperimentRunner,
    RunObserver,
    ScenarioConfig,
    run_observer,
    run_options,
)
from repro.experiments.scenarios import fw_nat_lb_10ge, workload_scenario
from repro.fidelity import (
    FluidParams,
    SteadySegment,
    fluid_eligible,
    plan_steady_segments,
)
from repro.netsim.eventloop import EventLoop, FastEventLoop
from repro.workloads.base import TrafficModel
from repro.workloads.schedule import TraceSchedule


DURATION_NS = 10_000_000


def _scenario(**overrides):
    return replace(ScenarioConfig(name="fidelity-test"), **overrides)


class TestSegmentPlanning:
    def test_constant_rate_scenario_is_one_segment(self):
        segments = plan_steady_segments(
            _scenario(send_rate_gbps=6.0), DURATION_NS
        )
        assert segments == [SteadySegment(0, DURATION_NS, 6.0)]

    def test_arrival_model_workloads_admit_no_segments(self):
        scenario = workload_scenario("enterprise-poisson", send_rate_gbps=5.0)
        assert scenario.traffic_model.arrivals is not None
        assert plan_steady_segments(scenario, DURATION_NS) == []

    def test_ramp_phases_are_excluded(self):
        schedule = TraceSchedule.ramp(2.0, 8.0, duration_ns=4_000_000)
        scenario = _scenario(traffic_model=TrafficModel(schedule=schedule))
        segments = plan_steady_segments(scenario, DURATION_NS)
        # Only the post-profile tail (the ramp's end rate held forever)
        # is steady.
        assert segments == [SteadySegment(4_000_000, DURATION_NS, 8.0)]

    def test_step_schedule_yields_one_segment_per_rate(self):
        schedule = TraceSchedule.steps(
            [(3_000_000, 4.0), (3_000_000, 4.0), (2_000_000, 9.0)]
        )
        scenario = _scenario(traffic_model=TrafficModel(schedule=schedule))
        segments = plan_steady_segments(scenario, DURATION_NS)
        # Adjacent equal-rate phases merge; the non-repeating profile's
        # final rate holds past its end, merging with the last phase.
        assert segments == [
            SteadySegment(0, 6_000_000, 4.0),
            SteadySegment(6_000_000, DURATION_NS, 9.0),
        ]

    def test_repeating_schedule_unrolls_cycles(self):
        schedule = TraceSchedule.steps(
            [(2_000_000, 3.0), (2_000_000, 7.0)], repeat=True
        )
        scenario = _scenario(traffic_model=TrafficModel(schedule=schedule))
        segments = plan_steady_segments(scenario, DURATION_NS)
        assert segments == [
            SteadySegment(0, 2_000_000, 3.0),
            SteadySegment(2_000_000, 4_000_000, 7.0),
            SteadySegment(4_000_000, 6_000_000, 3.0),
            SteadySegment(6_000_000, 8_000_000, 7.0),
            SteadySegment(8_000_000, 10_000_000, 3.0),
        ]

    def test_fault_windows_cut_segments_with_margin(self):
        scenario = _scenario(
            faults={
                "events": [
                    {"at_us": 4_000, "kind": "link_down", "duration_us": 1_000},
                ]
            },
        )
        segments = plan_steady_segments(scenario, DURATION_NS, margin_ns=500_000)
        assert segments == [
            SteadySegment(0, 3_500_000, 8.0),
            SteadySegment(5_500_000, DURATION_NS, 8.0),
        ]

    def test_short_pieces_are_dropped(self):
        scenario = _scenario(
            faults={
                "events": [
                    {"at_us": 500, "kind": "link_down", "duration_us": 100},
                ]
            },
        )
        segments = plan_steady_segments(
            scenario, DURATION_NS, min_segment_ns=1_000_000
        )
        # The 500 us head piece is below the floor; the tail survives.
        assert segments == [SteadySegment(600_000, DURATION_NS, 8.0)]

    def test_empty_horizon_plans_nothing(self):
        assert plan_steady_segments(_scenario(), 0) == []


class TestFluidEligibility:
    def test_constant_scenario_is_eligible(self):
        assert fluid_eligible(_scenario(duration_us=100_000.0))

    def test_arrival_workload_is_not(self):
        scenario = workload_scenario("enterprise-poisson", send_rate_gbps=5.0)
        assert not fluid_eligible(replace(scenario, duration_us=100_000.0))

    def test_observed_scenario_is_not(self):
        scenario = _scenario(duration_us=100_000.0, observe={"metrics": True})
        assert not fluid_eligible(scenario)

    def test_too_short_a_horizon_is_not(self):
        floor_ns = FluidParams().min_profitable_ns()
        assert not fluid_eligible(_scenario(duration_us=floor_ns / 1_000 * 0.5))

    def test_eligibility_is_time_scale_invariant(self):
        # Windows scale with the horizon, so shrinking a run for a quick
        # pass neither gains nor loses fluid eligibility.
        long = _scenario(duration_us=FluidParams().min_profitable_ns() / 1_000 * 2)
        short = _scenario(duration_us=FluidParams().min_profitable_ns() / 1_000 / 2)
        for time_scale in (1.0, 0.25):
            assert fluid_eligible(long, time_scale=time_scale)
            assert not fluid_eligible(short, time_scale=time_scale)


class TestTranslateEvents:
    @pytest.mark.parametrize("loop_cls", [EventLoop, FastEventLoop])
    def test_pending_events_shift_and_execute_in_order(self, loop_cls):
        env = loop_cls()
        fired = []
        env.schedule_at(100, lambda: fired.append("kept"))
        env.schedule_at(5_000, lambda: fired.append("shifted-a"))
        env.schedule_at(6_000, lambda: fired.append("shifted-b"))
        env.run_until(100)
        moved = env.translate_events(10_000, 2_000)
        assert moved == 2
        assert env.now == 2_100
        env.run_until(20_000)
        assert fired == ["kept", "shifted-a", "shifted-b"]

    @pytest.mark.parametrize("loop_cls", [EventLoop, FastEventLoop])
    def test_kept_events_run_before_shifted_on_collision(self, loop_cls):
        env = loop_cls()
        fired = []
        # Shifting by 3_000 lands the 5_000 event exactly on the kept
        # 8_000 boundary event; the boundary (kept) event must win.
        env.schedule_at(5_000, lambda: fired.append("shifted"))
        env.schedule_at(8_000, lambda: fired.append("boundary"))
        env.translate_events(8_000, 3_000)
        env.run_until(10_000)
        assert fired == ["boundary", "shifted"]

    @pytest.mark.parametrize("loop_cls", [EventLoop, FastEventLoop])
    def test_rejects_a_cutoff_before_the_new_now(self, loop_cls):
        env = loop_cls()
        env.schedule_at(500, lambda: None)
        with pytest.raises(ValueError):
            env.translate_events(1_000, 2_000)  # cutoff < now + delta
        with pytest.raises(ValueError):
            env.translate_events(1_000, -1)

    def test_fast_loop_refuses_to_translate_mid_drain(self):
        env = FastEventLoop()
        env.schedule_at(100, lambda: env.translate_events(10_000, 1_000))
        with pytest.raises(RuntimeError):
            env.run_until(200)

    def test_loops_agree_after_translation(self):
        def drive(loop_cls):
            env = loop_cls()
            fired = []
            for when in (50, 2_000, 2_000, 3_500, 9_000):
                env.schedule_at(when, lambda w=when: fired.append((w, env.now)))
            env.run_until(100)
            env.translate_events(4_000, 1_500)
            env.run_until(12_000)
            return fired

        assert drive(EventLoop) == drive(FastEventLoop)


class TestFidelityKnob:
    def test_scenario_validates_the_mode(self):
        for mode in FIDELITY_MODES:
            assert _scenario(fidelity=mode).fidelity == mode
        with pytest.raises(ValueError):
            _scenario(fidelity="warp")

    def test_fluid_on_a_figure_without_steady_segments_is_one_cli_error(self, capsys):
        # Every fig07 grid point refuses `fluid`; the figure loops in
        # process, so the CLI sees the FidelityError itself: one
        # `error:` line and exit 2, not a failed-campaign traceback.
        from repro.cli import main

        assert main(["run", "fig07", "--fidelity", "fluid", "--time-scale", "0.02"]) == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert "fidelity: fluid requires a steady traffic segment" in errors[0]

    def test_fluid_mode_raises_without_steady_segments(self):
        scenario = replace(
            workload_scenario("enterprise-poisson", send_rate_gbps=4.0),
            fidelity="fluid",
            duration_us=1_000.0,
            warmup_us=250.0,
        )
        runner = ExperimentRunner()
        with pytest.raises(FidelityError):
            runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)


class TestTierControllerRuns:
    def test_auto_is_byte_identical_when_no_segments_exist(self):
        # An arrival-model workload admits no steady segment, so auto
        # must never leave the packet tier: reports match exactly.
        base = replace(
            workload_scenario("enterprise-poisson", send_rate_gbps=4.0),
            duration_us=1_000.0,
            warmup_us=250.0,
        )
        runner = ExperimentRunner()
        packet = runner.run_deployment(
            replace(base, fidelity="packet"), DeploymentKind.PAYLOADPARK
        )
        auto = runner.run_deployment(
            replace(base, fidelity="auto"), DeploymentKind.PAYLOADPARK
        )
        assert packet == auto

    def test_auto_jumps_on_a_long_steady_run(self):
        scenario = replace(
            fw_nat_lb_10ge(6.0),
            duration_us=30_000.0,
            fidelity="auto",
        )
        runner = ExperimentRunner(time_scale=0.25)
        report = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        assert report.packets_sent > 0

    def test_controller_summary_counts_jumps(self):
        from repro.fidelity import TierController

        captured = {}
        original = TierController.advance

        def spying(self, horizon_ns):
            captured["controller"] = self
            return original(self, horizon_ns)

        scenario = replace(
            fw_nat_lb_10ge(6.0), duration_us=30_000.0, fidelity="auto"
        )
        runner = ExperimentRunner(time_scale=0.25)
        try:
            TierController.advance = spying
            runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        finally:
            TierController.advance = original
        summary = captured["controller"].summary()
        assert summary["segments_planned"] == 1
        assert summary["jumps"] >= 1
        assert summary["fluid_time_ns"] > 0
        assert summary["events_shifted"] > 0

    def test_events_in_flight_across_a_jump_survive_identically_on_both_engines(
        self, monkeypatch
    ):
        # At every jump the queue holds arg-carrying events (arrivals
        # with their packet, serialization ends with their byte count,
        # NF completions) next to zero-argument ones (the burst pacer).
        # Both loops must carry callback *and* argument across the
        # translation: the whole report and every link direction's
        # delivery count agree between the calendar and the heap engine.
        from repro.fidelity import TierController

        class Capture(RunObserver):
            def on_run_end(self, scenario, deployment, topology, program, reports):
                (attachment,) = topology.attachments
                self.frames_delivered = [
                    stats.frames_delivered
                    for link in (*attachment.gen_links, attachment.server_link)
                    for stats in link.direction_counters()
                ]

        controllers = []
        advance = TierController.advance

        def spying(self, horizon_ns):
            controllers.append(self)
            return advance(self, horizon_ns)

        monkeypatch.setattr(TierController, "advance", spying)
        scenario = replace(fw_nat_lb_10ge(6.0), duration_us=30_000.0, fidelity="auto")

        def run(reference):
            with run_options(reference=reference), run_observer(Capture()) as capture:
                report = ExperimentRunner(time_scale=0.25).run_deployment(
                    scenario, DeploymentKind.PAYLOADPARK
                )
            return report, capture.frames_delivered, controllers[-1].summary()

        report, delivered, summary = run(reference=False)
        assert summary["jumps"] >= 1 and summary["events_shifted"] > 0
        assert report.goodput_to_nf_gbps > 0 and sum(delivered) > 0
        assert run(reference=True) == (report, delivered, summary)
