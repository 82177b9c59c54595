"""Time-varying offered-load schedules.

A :class:`TraceSchedule` describes how the offered rate evolves over the
lifetime of a run as a sequence of :class:`RatePhase` segments, each
holding (or linearly interpolating between) rates in Gbps of L2 frame
bytes.  The traffic generator consults the schedule on every burst, so
rate ramps, diurnal cycles, step changes and silent (zero-rate) phases
all flow through the same constant-rate pacing code path.

Schedules are immutable plain data; :meth:`TraceSchedule.scaled` rescales
every phase so campaign sweeps over ``send_rate_gbps`` reshape the mean
offered load while preserving the schedule's *shape*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import WorkloadSpecError


@dataclass(frozen=True)
class RatePhase:
    """One segment of a schedule: rate over a fixed span of time.

    The rate interpolates linearly from ``start_gbps`` to ``end_gbps``
    over the phase's duration; equal endpoints give a flat phase.
    """

    duration_ns: int
    start_gbps: float
    end_gbps: float

    def __post_init__(self) -> None:
        if self.duration_ns <= 0:
            raise WorkloadSpecError("phase duration_ns must be positive")
        if self.start_gbps < 0 or self.end_gbps < 0:
            raise WorkloadSpecError("phase rates cannot be negative")
        if not (math.isfinite(self.start_gbps) and math.isfinite(self.end_gbps)):
            raise WorkloadSpecError("phase rates must be finite")

    def rate_at(self, offset_ns: int) -> float:
        """Rate at *offset_ns* from the start of this phase."""
        if self.start_gbps == self.end_gbps:
            return self.start_gbps
        fraction = min(max(offset_ns / self.duration_ns, 0.0), 1.0)
        return self.start_gbps + (self.end_gbps - self.start_gbps) * fraction

    def mean_gbps(self) -> float:
        """Time-averaged rate of the phase."""
        return (self.start_gbps + self.end_gbps) / 2.0


class TraceSchedule:
    """A piecewise-linear offered-load profile.

    Parameters
    ----------
    phases:
        Ordered :class:`RatePhase` segments.
    repeat:
        When true the profile wraps around after the last phase (diurnal
        cycles); otherwise the final phase's end rate holds forever.
    """

    def __init__(self, phases: Sequence[RatePhase], repeat: bool = False) -> None:
        if not phases:
            raise WorkloadSpecError("a schedule needs at least one phase")
        self.phases: Tuple[RatePhase, ...] = tuple(phases)
        self.repeat = repeat
        boundaries: List[int] = []
        elapsed = 0
        for phase in self.phases:
            elapsed += phase.duration_ns
            boundaries.append(elapsed)
        self._boundaries = boundaries
        self.total_duration_ns = elapsed
        if all(phase.mean_gbps() == 0 for phase in self.phases):
            raise WorkloadSpecError("a schedule cannot be silent in every phase")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _locate(self, t_ns: int) -> Tuple[RatePhase, int]:
        """The phase covering *t_ns* and the offset into it."""
        if t_ns >= self.total_duration_ns:
            if not self.repeat:
                last = self.phases[-1]
                return last, last.duration_ns
            t_ns %= self.total_duration_ns
        start = 0
        for phase, boundary in zip(self.phases, self._boundaries):
            if t_ns < boundary:
                return phase, t_ns - start
            start = boundary
        last = self.phases[-1]
        return last, last.duration_ns

    def rate_at(self, t_ns: int) -> float:
        """Offered rate (Gbps) at elapsed time *t_ns* since traffic start."""
        phase, offset = self._locate(t_ns)
        return phase.rate_at(offset)

    def next_transition(self, t_ns: int) -> Optional[int]:
        """The first phase boundary strictly after *t_ns* (None when past the end)."""
        if t_ns >= self.total_duration_ns:
            if not self.repeat:
                return None
            cycles = t_ns // self.total_duration_ns
            base = cycles * self.total_duration_ns
            return self.next_transition(t_ns - base) + base  # type: ignore[operator]
        for boundary in self._boundaries:
            if boundary > t_ns:
                return boundary
        return None

    def next_active(self, t_ns: int) -> Optional[int]:
        """Earliest time ≥ *t_ns* at which the rate is positive.

        Returns ``None`` when the schedule stays silent forever after
        *t_ns* (a non-repeating schedule ending in a zero-rate phase).
        """
        probe = t_ns
        for _ in range(2 * len(self.phases) + 2):
            if self.rate_at(probe) > 0:
                return probe
            if self.rate_at(probe + 1) > 0:
                # A ramp rising from exactly zero: positive immediately after.
                return probe + 1
            boundary = self.next_transition(probe)
            if boundary is None:
                return None
            probe = boundary
        return None

    def mean_gbps(self) -> float:
        """Time-averaged rate over one full pass of the profile."""
        weighted = sum(phase.mean_gbps() * phase.duration_ns for phase in self.phases)
        return weighted / self.total_duration_ns

    def gap_for_bits(self, t_ns: float, bits: float) -> Optional[float]:
        """Time from *t_ns* until the schedule has offered *bits* more bits.

        This is the exact pacing primitive: the returned gap ``g``
        satisfies ``∫ rate dt == bits`` over ``[t_ns, t_ns + g]`` (rate
        in Gbps is bits per nanosecond).  Quoting the *instantaneous*
        rate instead — ``bits / rate_at(t_ns)`` — freezes the pacer for
        nearly the whole phase when a ramp rises from (almost) zero, and
        sleeps blindly across phase boundaries; integrating is immune to
        both.  Returns ``None`` when the schedule goes silent forever
        before *bits* are offered (a non-repeating profile ending at
        rate zero).
        """
        if bits <= 0:
            return 0.0
        remaining = float(bits)
        cursor = float(t_ns)
        if self.repeat:
            # Fast-forward whole cycles so huge requests stay O(phases).
            cycle_bits = self.mean_gbps() * self.total_duration_ns
            local = cursor % self.total_duration_ns
            head = self._segment_bits(local, self.total_duration_ns - local)
            if remaining > head:
                cycles = int((remaining - head) // cycle_bits)
                remaining -= cycles * cycle_bits
                cursor += cycles * self.total_duration_ns
        for _ in range(2 * len(self.phases) + 2):
            if not self.repeat and cursor >= self.total_duration_ns:
                hold = self.phases[-1].end_gbps  # final rate holds forever
                if hold <= 0:
                    return None
                return cursor + remaining / hold - t_ns
            local = cursor % self.total_duration_ns if self.repeat else cursor
            phase, offset = self._locate(int(local))
            offset += local - int(local)  # keep the fractional part
            span = phase.duration_ns - offset
            r0 = phase.rate_at(offset)
            r1 = phase.rate_at(phase.duration_ns)
            slope = (phase.end_gbps - phase.start_gbps) / phase.duration_ns
            capacity = (r0 + r1) * span / 2.0
            if capacity >= remaining:
                if slope == 0:
                    gap = remaining / r0
                else:
                    # Solve r0*g + slope*g^2/2 == remaining (first root).
                    gap = (
                        math.sqrt(max(r0 * r0 + 2.0 * slope * remaining, 0.0)) - r0
                    ) / slope
                return cursor + gap - t_ns
            remaining -= capacity
            cursor += span
        return None

    def _segment_bits(self, t_ns: float, span_ns: float) -> float:
        """Bits offered over ``[t_ns, t_ns + span_ns]`` within one cycle."""
        total = 0.0
        cursor = t_ns
        end = t_ns + span_ns
        while cursor < end:
            phase, offset = self._locate(int(cursor))
            offset += cursor - int(cursor)
            piece = min(phase.duration_ns - offset, end - cursor)
            if piece <= 0:
                break
            total += (phase.rate_at(offset) + phase.rate_at(offset + piece)) / 2.0 * piece
            cursor += piece
        return total

    def scaled(self, factor: float) -> "TraceSchedule":
        """A copy with every rate multiplied by *factor* (shape preserved)."""
        if factor <= 0:
            raise WorkloadSpecError("scale factor must be positive")
        return TraceSchedule(
            [
                RatePhase(
                    duration_ns=phase.duration_ns,
                    start_gbps=phase.start_gbps * factor,
                    end_gbps=phase.end_gbps * factor,
                )
                for phase in self.phases
            ],
            repeat=self.repeat,
        )

    def with_mean(self, mean_gbps: float) -> "TraceSchedule":
        """A copy rescaled so the time-averaged rate equals *mean_gbps*."""
        current = self.mean_gbps()
        if current <= 0:
            raise WorkloadSpecError("cannot rescale an all-silent schedule")
        return self.scaled(mean_gbps / current)

    def describe(self) -> List[str]:
        """Human-readable phase summary (used by ``repro workload describe``)."""
        lines = []
        for index, phase in enumerate(self.phases):
            span_us = phase.duration_ns / 1_000.0
            if phase.start_gbps == phase.end_gbps:
                shape = f"{phase.start_gbps:g} Gbps"
            else:
                shape = f"{phase.start_gbps:g} -> {phase.end_gbps:g} Gbps"
            lines.append(f"phase {index}: {shape} for {span_us:g} us")
        if self.repeat:
            lines.append("(repeats)")
        return lines

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def constant(cls, rate_gbps: float, duration_ns: int = 1_000_000_000) -> "TraceSchedule":
        """A flat profile (equivalent to the legacy constant-rate path)."""
        return cls([RatePhase(duration_ns, rate_gbps, rate_gbps)])

    @classmethod
    def ramp(cls, start_gbps: float, end_gbps: float, duration_ns: int) -> "TraceSchedule":
        """Linear ramp from *start_gbps* to *end_gbps*; holds the end rate after."""
        return cls([RatePhase(duration_ns, start_gbps, end_gbps)])

    @classmethod
    def steps(cls, steps: Sequence[Tuple[int, float]], repeat: bool = False) -> "TraceSchedule":
        """Piecewise-constant profile from ``(duration_ns, rate_gbps)`` pairs."""
        return cls(
            [RatePhase(duration_ns, rate, rate) for duration_ns, rate in steps],
            repeat=repeat,
        )

    @classmethod
    def diurnal(
        cls,
        low_gbps: float,
        high_gbps: float,
        period_ns: int,
        segments: int = 8,
    ) -> "TraceSchedule":
        """A repeating sinusoid-like day/night cycle discretized into ramps."""
        if segments < 2:
            raise WorkloadSpecError("diurnal schedules need at least 2 segments")
        if low_gbps > high_gbps:
            raise WorkloadSpecError("low_gbps must not exceed high_gbps")
        mid = (low_gbps + high_gbps) / 2.0
        amplitude = (high_gbps - low_gbps) / 2.0
        span = period_ns // segments
        if span <= 0:
            raise WorkloadSpecError("period_ns too short for the segment count")
        phases = []
        for index in range(segments):
            theta0 = 2.0 * math.pi * index / segments
            theta1 = 2.0 * math.pi * (index + 1) / segments
            phases.append(
                RatePhase(
                    duration_ns=span,
                    start_gbps=mid - amplitude * math.cos(theta0),
                    end_gbps=mid - amplitude * math.cos(theta1),
                )
            )
        return cls(phases, repeat=True)
