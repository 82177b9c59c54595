"""The observability specification: what to record, and how densely.

:class:`ObserveSpec` is the plain-data contract between a scenario and
the observability plane.  It travels inside
``ScenarioConfig.observe`` (and campaign run options), so it must stay
frozen, hashable and picklable — campaign workers rebuild the plane on
their side of the process boundary from this spec alone.

Everything defaults *off*: a scenario without a spec (or with every
feature flag false) builds no plane at all, so the run installs no hook
and no profiler wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import ObserveSpecError, require_positive_finite

#: Keys accepted in a dict-form observe spec.
_SPEC_KEYS = frozenset(
    {
        "metrics",
        "trace",
        "profile",
        "sample_interval_us",
        "series_capacity",
        "trace_sample_every",
        "trace_max_events",
    }
)


@dataclass(frozen=True)
class ObserveSpec:
    """Which observability features a run enables, and their knobs.

    Attributes
    ----------
    metrics:
        Enable the :class:`~repro.obs.metrics.MetricsRegistry` with
        periodic time-series sampling off the event loop.
    trace:
        Enable the :class:`~repro.obs.trace.FlightRecorder` (sampled
        packet-lifecycle spans, JSONL / Chrome trace export).
    profile:
        Enable the :class:`~repro.obs.profiler.PhaseProfiler`
        (wall-time attribution to engine stages, timed by wrappers
        around the engine's seams for the run).
    sample_interval_us:
        Simulated time between metric samples.
    series_capacity:
        Ring-buffer capacity of each time series; older samples are
        overwritten once full (the overwrite count is exported).
    trace_sample_every:
        Deterministic 1-in-N packet sampling: the flight recorder
        follows every N-th packet each generator emits.
    trace_max_events:
        Hard cap on recorded trace events; overflow is counted and
        reported in the export metadata, never silently dropped.
    """

    metrics: bool = False
    trace: bool = False
    profile: bool = False
    sample_interval_us: float = 50.0
    series_capacity: int = 512
    trace_sample_every: int = 1
    trace_max_events: int = 200_000

    def __post_init__(self) -> None:
        require_positive_finite(
            "sample_interval_us", self.sample_interval_us, ObserveSpecError
        )
        if self.series_capacity < 2:
            raise ObserveSpecError(
                f"series_capacity must be at least 2, got {self.series_capacity}"
            )
        if self.trace_sample_every < 1:
            raise ObserveSpecError(
                f"trace_sample_every must be at least 1, got {self.trace_sample_every}"
            )
        if self.trace_max_events < 1:
            raise ObserveSpecError(
                f"trace_max_events must be at least 1, got {self.trace_max_events}"
            )

    @property
    def enabled(self) -> bool:
        """True when any feature is on (the plane is worth building)."""
        return self.metrics or self.trace or self.profile

    @property
    def sample_interval_ns(self) -> int:
        """The metric sampling interval in integer nanoseconds (>= 1)."""
        return max(1, int(round(self.sample_interval_us * 1_000)))

    @classmethod
    def from_spec(cls, spec: Any) -> Optional["ObserveSpec"]:
        """Normalize ``ScenarioConfig.observe`` / campaign option forms.

        ``None``/``False`` mean off; ``True`` enables metrics only (the
        cheap default for campaign summaries); a mapping configures
        features explicitly; an existing spec passes through.
        """
        if spec is None or spec is False:
            return None
        if isinstance(spec, ObserveSpec):
            return spec
        if spec is True:
            return cls(metrics=True)
        if isinstance(spec, Mapping):
            unknown = set(spec) - _SPEC_KEYS
            if unknown:
                raise ObserveSpecError(
                    f"unknown observe key(s) {sorted(unknown)}; "
                    f"known: {sorted(_SPEC_KEYS)}"
                )
            try:
                return cls(**dict(spec))
            except TypeError as exc:  # non-keyword-able values
                raise ObserveSpecError(f"invalid observe spec {spec!r}: {exc}") from exc
        raise ObserveSpecError(
            f"observe spec must be None, a bool, a mapping or an ObserveSpec; got {spec!r}"
        )
