"""The observability plane: metrics, flight recording and phase profiling.

Three instruments, all default-off, all wired through the testbed by
:class:`~repro.obs.plane.ObservabilityPlane` when
``ScenarioConfig.observe`` enables them:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  fixed-bucket histograms, and ring-buffer time series sampled
  periodically off the event loop (SRAM occupancy, park/evict/merge
  rates, per-link drops, NF cache hit ratios, goodput over time).
* :class:`~repro.obs.trace.FlightRecorder` — deterministic 1-in-N
  sampled packet-lifecycle spans, exportable as JSONL and Chrome
  trace-event JSON; fault windows appear as trace annotations.
* :class:`~repro.obs.profiler.PhaseProfiler` — wall-time attribution
  to engine stages (pipeline walk, NF processing, traffic generation,
  link transmit, fault injection, residual event dispatch).

The disabled path is budgeted at <2% overhead and gated by
``repro bench --obs-check``.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.config": ("ObserveSpec",),
        "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry", "TimeSeries"),
        "repro.obs.plane": ("ObservabilityPlane", "RunObservation"),
        "repro.obs.profiler": ("PhaseProfiler",),
        "repro.obs.session": (
            "ObservationSink",
            "current_observation_sink",
            "observation_sink",
        ),
        "repro.obs.trace": ("FlightRecorder",),
    },
)
