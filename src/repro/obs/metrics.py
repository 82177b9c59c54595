"""Time-series metrics: counters, gauges, histograms and the registry.

The registry is sampled periodically *on the simulated clock*: a
self-rescheduling event-loop callback snapshots every tracked series
into a fixed-capacity ring buffer.  Sampling reads state and mutates
nothing in the simulation, so an instrumented run produces reports
byte-identical to an uninstrumented one — the property the integration
suite pins.

All values are plain Python numbers and every container is a plain
dict/list, so a finished export pickles across campaign worker
boundaries and serializes to JSON without custom encoders.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Export schema identifier; bump on incompatible layout changes.
METRICS_SCHEMA = "repro.metrics/v1"

#: Default latency histogram bucket upper bounds (microseconds).
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram (upper-bound buckets plus overflow).

    ``bounds`` are the inclusive upper edges of each bucket in ascending
    order; one implicit overflow bucket catches everything above the
    last edge.  Two histograms merge only when their bounds are
    identical — merging across differing layouts would silently
    misattribute observations.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(bound) for bound in bounds)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"histogram bounds must be strictly increasing: {edges}")
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class TimeSeries:
    """A fixed-capacity ring buffer of ``(t_ns, value)`` samples.

    Once full, the oldest sample is overwritten and the overwrite is
    counted — long runs keep the most recent window instead of growing
    without bound, and the export says how much history was shed.
    """

    __slots__ = ("name", "capacity", "_times", "_values", "_start", "_size", "dropped")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 2:
            raise ValueError(f"time series capacity must be >=2, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._times: List[int] = [0] * capacity
        self._values: List[float] = [0.0] * capacity
        self._start = 0
        self._size = 0
        self.dropped = 0

    def __len__(self) -> int:
        return self._size

    def append(self, t_ns: int, value: float) -> None:
        """Record one sample, overwriting the oldest when full."""
        if self._size < self.capacity:
            index = (self._start + self._size) % self.capacity
            self._size += 1
        else:
            index = self._start
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1
        self._times[index] = t_ns
        self._values[index] = value

    def points(self) -> List[Tuple[int, float]]:
        """Samples oldest-first."""
        return [
            (
                self._times[(self._start + offset) % self.capacity],
                self._values[(self._start + offset) % self.capacity],
            )
            for offset in range(self._size)
        ]

    def rates(self) -> List[Tuple[int, float]]:
        """Per-second rates between consecutive samples of a cumulative series.

        Each entry is ``(t_ns, (v[i] - v[i-1]) / dt_seconds)`` stamped at
        the end of its interval — the derivative view that turns a
        delivered-bytes counter into a goodput-over-time curve.
        """
        samples = self.points()
        rates: List[Tuple[int, float]] = []
        for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
            dt_ns = t1 - t0
            if dt_ns <= 0:
                continue
            rates.append((t1, (v1 - v0) * 1e9 / dt_ns))
        return rates


class MetricsRegistry:
    """Named metrics plus tracked time series sampled off the event loop.

    ``track`` registers a zero-argument read callback; every sampling
    tick appends its current value to the series' ring buffer.  ``kind``
    distinguishes gauges (instantaneous values: SRAM occupancy, queue
    depth) from cumulative counters (delivered bytes, drops), for which
    the export also derives per-interval rates.
    """

    def __init__(self, series_capacity: int = 512) -> None:
        self.series_capacity = series_capacity
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self._tracked: List[Tuple[str, Callable[[], float], str]] = []
        self._kinds: Dict[str, str] = {}
        self.samples_taken = 0
        self.sample_interval_ns = 0

    # ------------------------------------------------------------------ #
    # Instrument registration
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        """Get or create the counter *name*."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge *name*."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """Get or create the histogram *name* with the given bucket bounds."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, bounds)
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds {instrument.bounds}"
            )
        return instrument

    def track(self, name: str, read: Callable[[], float], kind: str = "gauge") -> None:
        """Sample ``read()`` into the series *name* on every tick."""
        if kind not in ("gauge", "cumulative"):
            raise ValueError(f"track kind must be 'gauge' or 'cumulative', got {kind!r}")
        if name in self._kinds:
            raise ValueError(f"series {name!r} is already tracked")
        self.series[name] = TimeSeries(name, self.series_capacity)
        self._tracked.append((name, read, kind))
        self._kinds[name] = kind

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(self, now_ns: int) -> None:
        """Snapshot every tracked series at simulated time *now_ns*."""
        for name, read, _kind in self._tracked:
            self.series[name].append(now_ns, float(read()))
        self.samples_taken += 1

    def start_sampling(self, env: Any, interval_ns: int, horizon_ns: int) -> None:
        """Arm the periodic sampler on *env* until *horizon_ns*.

        The tick callback only reads simulation state, so scheduling it
        interleaved with traffic events cannot change their results —
        only their (already-deterministic) dispatch order, identically
        on the fast and reference loops.
        """
        if interval_ns < 1:
            raise ValueError(f"sample interval must be >=1 ns, got {interval_ns}")
        self.sample_interval_ns = interval_ns

        def tick() -> None:
            self.sample(env.now)
            next_ns = env.now + interval_ns
            if next_ns <= horizon_ns:
                env.schedule_at(next_ns, tick)

        first_ns = env.now + interval_ns
        if first_ns <= horizon_ns:
            env.schedule_at(first_ns, tick)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def export(self) -> Dict[str, Any]:
        """Plain-data dump of every instrument and series."""
        series: Dict[str, Any] = {}
        for name, ts in self.series.items():
            kind = self._kinds[name]
            entry: Dict[str, Any] = {
                "kind": kind,
                "points": [[t, v] for t, v in ts.points()],
                "dropped_samples": ts.dropped,
            }
            if kind == "cumulative":
                entry["rates_per_s"] = [[t, r] for t, r in ts.rates()]
            series[name] = entry
        return {
            "schema": METRICS_SCHEMA,
            "sample_interval_ns": self.sample_interval_ns,
            "samples_taken": self.samples_taken,
            "counters": {name: c.value for name, c in self.counters.items()},
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {name: h.as_dict() for name, h in self.histograms.items()},
            "series": series,
        }
