"""Packet arrival processes.

The legacy traffic generator paces bursts deterministically: every gap
equals exactly the bytes-per-burst over the offered rate.  Real traffic
is rougher.  Each :class:`ArrivalModel` here is an immutable description
of an arrival process; :meth:`ArrivalModel.sampler` binds it to an RNG
and returns a stateful :class:`ArrivalSampler` whose ``next_gap_ns``
perturbs the deterministic target gap while preserving the long-run
mean, so the offered rate still matches the schedule.

Models
------
* :class:`UniformArrivals` — deterministic pacing (the legacy behavior).
* :class:`PoissonArrivals` — memoryless gaps (exponential).
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process:
  an ON state emits at ``burst_factor`` times the mean rate, an OFF
  state at the complementary rate, with geometric state residence.
* :class:`IncastArrivals` — fan-in synchronization: ``fan_in`` arrivals
  clustered at the start of every epoch, then silence, as when many
  servers answer one aggregation query at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadSpecError


class ArrivalSampler:
    """Stateful gap generator bound to one RNG (one per traffic source)."""

    def next_gap_ns(self, target_gap_ns: float) -> float:
        """Draw the next inter-burst gap given the mean *target_gap_ns*."""
        raise NotImplementedError


@dataclass(frozen=True)
class ArrivalModel:
    """Immutable arrival-process description; shareable across generators."""

    def sampler(self, rng: random.Random) -> ArrivalSampler:
        """Bind this model to *rng* and return a fresh sampler."""
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# Uniform (deterministic) pacing
# ---------------------------------------------------------------------- #


class _UniformSampler(ArrivalSampler):
    def next_gap_ns(self, target_gap_ns: float) -> float:
        return target_gap_ns


@dataclass(frozen=True)
class UniformArrivals(ArrivalModel):
    """Deterministic pacing: every gap equals the target gap."""

    def sampler(self, rng: random.Random) -> ArrivalSampler:
        return _UniformSampler()

    def label(self) -> str:
        return "uniform"


# ---------------------------------------------------------------------- #
# Poisson
# ---------------------------------------------------------------------- #


class _PoissonSampler(ArrivalSampler):
    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def next_gap_ns(self, target_gap_ns: float) -> float:
        return self._rng.expovariate(1.0 / target_gap_ns)


@dataclass(frozen=True)
class PoissonArrivals(ArrivalModel):
    """Memoryless arrivals: exponential gaps with the target mean."""

    def sampler(self, rng: random.Random) -> ArrivalSampler:
        return _PoissonSampler(rng)

    def label(self) -> str:
        return "poisson"


# ---------------------------------------------------------------------- #
# Two-state MMPP (on/off bursts)
# ---------------------------------------------------------------------- #


class _MMPPSampler(ArrivalSampler):
    def __init__(self, model: "MMPPArrivals", rng: random.Random) -> None:
        self._model = model
        self._rng = rng
        # Rate multipliers per state, chosen so the long-run *time*
        # fraction spent ON is on_fraction and the mean rate is 1:
        # on_fraction * burst_factor + (1 - on_fraction) * off_factor == 1.
        self._on_factor = model.burst_factor
        self._off_factor = (1.0 - model.on_fraction * model.burst_factor) / (
            1.0 - model.on_fraction
        )
        # State flips are decided per event, so the stationary *event*
        # fraction in ON must be on_fraction * burst_factor (the ON state
        # emits burst_factor times faster); asymmetric switch
        # probabilities put the chain in exactly that balance.
        self._event_fraction_on = min(model.on_fraction * model.burst_factor, 1.0)
        self._on = rng.random() < self._event_fraction_on

    def next_gap_ns(self, target_gap_ns: float) -> float:
        model = self._model
        if self._off_factor <= 0:
            # Pure on/off (on_fraction * burst_factor == 1): the OFF state
            # emits nothing, so it cannot host per-event switching; model
            # it as an explicit silent dwell appended to ~1/residence of
            # the ON gaps, sized so the long-run mean gap stays on target.
            gap = self._rng.expovariate(self._on_factor / target_gap_ns)
            if self._rng.random() < 1.0 / model.mean_residence_events:
                dwell_on_ns = model.mean_residence_events * target_gap_ns / self._on_factor
                mean_silence_ns = (
                    dwell_on_ns * (1.0 - model.on_fraction) / model.on_fraction
                )
                gap += self._rng.expovariate(1.0 / mean_silence_ns)
            return gap
        if self._on:
            switch_probability = (1.0 - self._event_fraction_on) / model.mean_residence_events
        else:
            switch_probability = self._event_fraction_on / model.mean_residence_events
        if self._rng.random() < switch_probability:
            self._on = not self._on
        factor = self._on_factor if self._on else self._off_factor
        return self._rng.expovariate(factor / target_gap_ns)


@dataclass(frozen=True)
class MMPPArrivals(ArrivalModel):
    """Two-state Markov-modulated Poisson process (on/off bursty traffic).

    Attributes
    ----------
    on_fraction:
        Long-run fraction of time spent in the ON (bursty) state.
    burst_factor:
        Rate multiplier of the ON state; the OFF state's multiplier is
        derived so the long-run mean rate is preserved, which requires
        ``burst_factor <= 1 / on_fraction``.
    mean_residence_events:
        Mean number of arrivals between state flips (burst length).
    """

    on_fraction: float = 0.25
    burst_factor: float = 3.0
    mean_residence_events: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.on_fraction < 1.0:
            raise WorkloadSpecError("on_fraction must lie in (0, 1)")
        if self.burst_factor < 1.0:
            raise WorkloadSpecError("burst_factor must be >= 1")
        if self.on_fraction * self.burst_factor > 1.0:
            raise WorkloadSpecError(
                "on_fraction * burst_factor must be <= 1 so the OFF-state "
                "rate stays non-negative"
            )
        if self.mean_residence_events < 1:
            raise WorkloadSpecError("mean_residence_events must be >= 1")

    def sampler(self, rng: random.Random) -> ArrivalSampler:
        return _MMPPSampler(self, rng)

    def label(self) -> str:
        return (
            f"mmpp(on={self.on_fraction:g}, burst×{self.burst_factor:g}, "
            f"residence={self.mean_residence_events})"
        )


# ---------------------------------------------------------------------- #
# Incast synchronization
# ---------------------------------------------------------------------- #


class _IncastSampler(ArrivalSampler):
    def __init__(self, model: "IncastArrivals") -> None:
        self._model = model
        self._position = 0

    def next_gap_ns(self, target_gap_ns: float) -> float:
        model = self._model
        small = target_gap_ns * model.duty
        if self._position < model.fan_in - 1:
            self._position += 1
            return small
        # Close the epoch: pad so the epoch's mean gap equals the target.
        self._position = 0
        return target_gap_ns * model.fan_in - (model.fan_in - 1) * small


@dataclass(frozen=True)
class IncastArrivals(ArrivalModel):
    """Synchronized fan-in: ``fan_in`` arrivals bunched at each epoch start.

    ``duty`` compresses the intra-burst gaps (a fraction of the mean
    gap); the closing silent gap stretches so the long-run rate matches
    the schedule exactly.  ``fan_in=1`` is the degenerate edge — a
    "burst" of one arrival per epoch — and collapses to exact uniform
    pacing (every gap is a closing gap of one target).
    """

    fan_in: int = 32
    duty: float = 0.05

    def __post_init__(self) -> None:
        if self.fan_in < 1:
            raise WorkloadSpecError("fan_in must be >= 1")
        if not 0.0 < self.duty < 1.0:
            raise WorkloadSpecError("duty must lie in (0, 1)")

    def sampler(self, rng: random.Random) -> ArrivalSampler:
        return _IncastSampler(self)

    def label(self) -> str:
        return f"incast(fan_in={self.fan_in}, duty={self.duty:g})"
