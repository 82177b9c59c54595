"""Unit tests for time-varying offered-load schedules."""

import math

import pytest

from repro.errors import WorkloadSpecError
from repro.workloads.schedule import RatePhase, TraceSchedule


class TestRatePhase:
    def test_flat_phase_rate(self):
        phase = RatePhase(1_000, 4.0, 4.0)
        assert phase.rate_at(0) == 4.0
        assert phase.rate_at(999) == 4.0
        assert phase.mean_gbps() == 4.0

    def test_ramp_interpolates_linearly(self):
        phase = RatePhase(1_000, 2.0, 12.0)
        assert phase.rate_at(0) == pytest.approx(2.0)
        assert phase.rate_at(500) == pytest.approx(7.0)
        assert phase.rate_at(1_000) == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(WorkloadSpecError):
            RatePhase(0, 1.0, 1.0)
        with pytest.raises(WorkloadSpecError):
            RatePhase(10, -1.0, 1.0)
        with pytest.raises(WorkloadSpecError):
            RatePhase(10, float("inf"), 1.0)


class TestTraceSchedule:
    def test_needs_phases_and_some_traffic(self):
        with pytest.raises(WorkloadSpecError):
            TraceSchedule([])
        with pytest.raises(WorkloadSpecError):
            TraceSchedule([RatePhase(100, 0.0, 0.0)])

    def test_constant(self):
        schedule = TraceSchedule.constant(8.0)
        assert schedule.rate_at(0) == 8.0
        assert schedule.rate_at(10**12) == 8.0
        assert schedule.mean_gbps() == 8.0

    def test_steps_and_transitions(self):
        schedule = TraceSchedule.steps([(1_000, 2.0), (1_000, 0.0), (1_000, 6.0)])
        assert schedule.rate_at(500) == 2.0
        assert schedule.rate_at(1_500) == 0.0
        assert schedule.rate_at(2_500) == 6.0
        assert schedule.next_transition(0) == 1_000
        assert schedule.next_transition(1_000) == 2_000
        # Past the end of a non-repeating schedule the final rate holds.
        assert schedule.rate_at(10_000) == 6.0
        assert schedule.next_transition(10_000) is None

    def test_next_active_skips_silent_phase(self):
        schedule = TraceSchedule.steps([(1_000, 2.0), (1_000, 0.0), (1_000, 6.0)])
        assert schedule.next_active(0) == 0
        assert schedule.next_active(1_200) == 2_000

    def test_next_active_on_zero_start_ramp(self):
        schedule = TraceSchedule.ramp(0.0, 10.0, 1_000)
        active = schedule.next_active(0)
        assert active is not None
        assert schedule.rate_at(active) > 0

    def test_next_active_none_when_silent_forever(self):
        schedule = TraceSchedule.steps([(1_000, 4.0), (1_000, 0.0)])
        assert schedule.next_active(1_500) is None

    def test_repeat_wraps_around(self):
        schedule = TraceSchedule.steps([(1_000, 2.0), (1_000, 8.0)], repeat=True)
        assert schedule.rate_at(2_500) == 2.0
        assert schedule.rate_at(3_500) == 8.0
        assert schedule.next_transition(2_500) == 3_000

    def test_mean_and_scaling(self):
        schedule = TraceSchedule.steps([(1_000, 2.0), (3_000, 10.0)])
        assert schedule.mean_gbps() == pytest.approx(8.0)
        scaled = schedule.with_mean(4.0)
        assert scaled.mean_gbps() == pytest.approx(4.0)
        assert scaled.rate_at(0) == pytest.approx(1.0)
        assert scaled.rate_at(1_000) == pytest.approx(5.0)
        with pytest.raises(WorkloadSpecError):
            schedule.scaled(0)

    def test_ramp_rate_holds_after_end(self):
        schedule = TraceSchedule.ramp(2.0, 12.0, 4_000)
        assert schedule.rate_at(2_000) == pytest.approx(7.0)
        assert schedule.rate_at(8_000) == pytest.approx(12.0)

    def test_diurnal_cycles_between_bounds(self):
        schedule = TraceSchedule.diurnal(3.0, 11.0, period_ns=8_000, segments=8)
        rates = [schedule.rate_at(t) for t in range(0, 16_000, 500)]
        assert min(rates) >= 3.0 - 1e-9
        assert max(rates) <= 11.0 + 1e-9
        assert schedule.rate_at(0) == pytest.approx(3.0)
        # Repeats: one full period later the profile is identical.
        assert schedule.rate_at(1_234) == pytest.approx(schedule.rate_at(9_234))
        assert schedule.mean_gbps() == pytest.approx(7.0, rel=0.05)

    def test_describe_mentions_every_phase(self):
        schedule = TraceSchedule.steps([(1_000, 2.0), (1_000, 8.0)], repeat=True)
        lines = schedule.describe()
        assert len(lines) == 3
        assert "(repeats)" in lines[-1]


class TestGapForBits:
    """Integral pacing: ``gap_for_bits`` solves ``∫ rate dt == bits``.

    These pin the fix for the ramp-from-zero starvation bug: the old
    pacer quoted the *instantaneous* rate across the whole gap, which
    froze a generator at the foot of a ramp and slept blindly across
    phase boundaries.
    """

    def test_flat_phase_matches_instantaneous_rate(self):
        schedule = TraceSchedule.constant(8.0)
        assert schedule.gap_for_bits(0, 8_000) == pytest.approx(1_000.0)

    def test_zero_or_negative_bits_cost_no_time(self):
        schedule = TraceSchedule.constant(8.0)
        assert schedule.gap_for_bits(0, 0) == 0.0
        assert schedule.gap_for_bits(123.5, -7) == 0.0

    def test_ramp_from_zero_does_not_starve(self):
        # rate_at(0) == 0, so instantaneous pacing would quote an
        # (effectively) infinite gap; the integral gap is finite.
        schedule = TraceSchedule.ramp(0.0, 8.0, 100_000)
        slope = 8.0 / 100_000
        bits = 8_192.0
        gap = schedule.gap_for_bits(0, bits)
        assert gap == pytest.approx(math.sqrt(2.0 * bits / slope))
        # The area under the ramp over the gap equals the request.
        assert slope * gap * gap / 2.0 == pytest.approx(bits)

    def test_crosses_phase_boundary_instead_of_sleeping_blind(self):
        schedule = TraceSchedule.steps([(1_000, 8.0), (1_000, 2.0)])
        # 8k bits drain phase 0 exactly; 2k more take 1000 ns at 2 Gbps.
        assert schedule.gap_for_bits(0, 10_000) == pytest.approx(2_000.0)

    def test_mid_phase_start_offsets_correctly(self):
        schedule = TraceSchedule.steps([(50_000, 8.0), (50_000, 2.0)])
        assert schedule.gap_for_bits(25_000, 100_000) == pytest.approx(12_500.0)

    def test_final_rate_holds_past_the_end(self):
        schedule = TraceSchedule.ramp(2.0, 12.0, 4_000)
        assert schedule.gap_for_bits(8_000, 12_000) == pytest.approx(1_000.0)

    def test_none_when_silent_forever(self):
        schedule = TraceSchedule.steps([(1_000, 4.0), (1_000, 0.0)])
        # Only 4k bits are ever offered after t=0; asking for 5k never
        # completes, and asking from inside the final silence never starts.
        assert schedule.gap_for_bits(0, 5_000) is None
        assert schedule.gap_for_bits(1_500, 100) is None

    def test_repeat_wraps_through_silence(self):
        schedule = TraceSchedule.steps(
            [(100_000, 4.0), (100_000, 0.0)], repeat=True
        )
        assert schedule.gap_for_bits(0, 400_000) == pytest.approx(100_000.0)
        # A second active phase's worth: wait out the silent half first.
        assert schedule.gap_for_bits(0, 800_000) == pytest.approx(300_000.0)

    def test_repeat_fast_forwards_many_cycles(self):
        schedule = TraceSchedule.steps([(1_000, 4.0), (1_000, 0.0)], repeat=True)
        # 1000 full cycles (4k bits each) plus half of the next active
        # phase; the cycle fast-forward keeps this O(phases), not O(cycles).
        gap = schedule.gap_for_bits(0, 4_000 * 1000 + 2_000)
        assert gap == pytest.approx(1000 * 2_000 + 500.0)
