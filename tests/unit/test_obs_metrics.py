"""Unit tests for the metrics registry: instruments, ring buffers, export."""

import pytest

from repro.errors import ObserveSpecError
from repro.netsim.eventloop import EventLoop
from repro.obs.config import ObserveSpec
from repro.obs.metrics import (
    LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.schema import SchemaError, validate_metrics


class TestObserveSpec:
    def test_defaults_are_all_off(self):
        spec = ObserveSpec()
        assert not spec.enabled
        assert not (spec.metrics or spec.trace or spec.profile)

    def test_full_enables_everything(self):
        spec = ObserveSpec.full()
        assert spec.metrics and spec.trace and spec.profile

    def test_from_spec_none_and_false_mean_off(self):
        assert ObserveSpec.from_spec(None) is None
        assert ObserveSpec.from_spec(False) is None

    def test_from_spec_true_is_metrics_only(self):
        spec = ObserveSpec.from_spec(True)
        assert spec.metrics and not spec.trace and not spec.profile

    def test_from_spec_mapping_and_passthrough(self):
        spec = ObserveSpec.from_spec({"trace": True, "trace_sample_every": 4})
        assert spec.trace and spec.trace_sample_every == 4
        assert ObserveSpec.from_spec(spec) is spec

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ObserveSpecError, match="unknown observe key"):
            ObserveSpec.from_spec({"traces": True})

    def test_rejects_out_of_range_knobs(self):
        with pytest.raises(ObserveSpecError):
            ObserveSpec(sample_interval_us=0)
        with pytest.raises(ObserveSpecError):
            ObserveSpec(series_capacity=1)
        with pytest.raises(ObserveSpecError):
            ObserveSpec(trace_sample_every=0)

    @pytest.mark.parametrize("interval, message", [
        (float("inf"), "sample_interval_us must be finite, got inf"),
        (float("-inf"), "sample_interval_us must be finite, got -inf"),
        (float("nan"), "sample_interval_us must be finite, got nan"),
        (1e400, "sample_interval_us must be finite, got inf"),
        (-5.0, "sample_interval_us must be positive"),
    ], ids=["inf", "-inf", "nan", "overflowed-literal", "negative"])
    def test_sample_interval_must_be_positive_and_finite(self, interval, message):
        # inf once passed the ``<= 0`` check and overflowed int() when a
        # sampler converted it to nanoseconds.
        with pytest.raises(ObserveSpecError, match=message):
            ObserveSpec.from_spec({"metrics": True, "sample_interval_us": interval})

    def test_sample_interval_ns_rounds_and_floors(self):
        assert ObserveSpec(sample_interval_us=50.0).sample_interval_ns == 50_000
        assert ObserveSpec(sample_interval_us=0.0001).sample_interval_ns == 1

    def test_as_dict_round_trips(self):
        spec = ObserveSpec.full(trace_sample_every=8)
        assert ObserveSpec.from_spec(spec.as_dict()) == spec


class TestInstruments:
    def test_counter_increments_and_rejects_decrease(self):
        counter = Counter("drops")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("occupancy")
        gauge.set(7)
        gauge.set(3.5)
        assert gauge.value == 3.5


class TestHistogram:
    def test_bucket_placement_including_overflow(self):
        hist = Histogram("lat", (10.0, 20.0, 50.0))
        for value in (5.0, 10.0, 15.0, 60.0):
            hist.observe(value)
        # <=10 gets 5.0 and the boundary 10.0; 60 overflows.
        assert hist.counts == [2, 1, 0, 1]
        assert hist.count == 4
        assert hist.min == 5.0 and hist.max == 60.0
        assert hist.mean == pytest.approx((5 + 10 + 15 + 60) / 4)

    def test_bounds_must_be_strictly_increasing_and_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("empty", ())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("bad", (10.0, 10.0))

    def test_merge_folds_buckets_and_extrema(self):
        left = Histogram("lat", (10.0, 20.0))
        right = Histogram("lat", (10.0, 20.0))
        left.observe(5.0)
        left.observe(25.0)
        right.observe(15.0)
        right.observe(3.0)
        left.merge(right)
        assert left.counts == [2, 1, 1]
        assert left.count == 4
        assert left.min == 3.0 and left.max == 25.0
        assert left.total == pytest.approx(48.0)

    def test_merge_rejects_different_bounds(self):
        left = Histogram("lat", (10.0, 20.0))
        right = Histogram("lat", (10.0, 30.0))
        with pytest.raises(ValueError, match="different bounds"):
            left.merge(right)

    def test_merge_into_empty_adopts_extrema(self):
        empty = Histogram("lat", (10.0,))
        full = Histogram("lat", (10.0,))
        full.observe(4.0)
        empty.merge(full)
        assert empty.min == 4.0 and empty.max == 4.0 and empty.count == 1


class TestTimeSeries:
    def test_capacity_floor(self):
        with pytest.raises(ValueError, match=">=2"):
            TimeSeries("s", 1)

    def test_wraparound_keeps_newest_and_counts_drops(self):
        series = TimeSeries("s", 4)
        for tick in range(10):
            series.append(tick * 100, float(tick))
        assert len(series) == 4
        assert series.dropped == 6
        # Oldest-first, and only the newest four samples survive.
        assert series.points() == [
            (600, 6.0), (700, 7.0), (800, 8.0), (900, 9.0)
        ]

    def test_rates_are_per_second_derivatives(self):
        series = TimeSeries("bytes", 8)
        series.append(0, 0.0)
        series.append(1_000_000, 1000.0)  # +1000 bytes over 1 ms -> 1e6 bytes/s
        series.append(2_000_000, 1000.0)  # flat -> 0/s
        assert series.rates() == [(1_000_000, pytest.approx(1e6)),
                                  (2_000_000, pytest.approx(0.0))]

    def test_rates_skip_nonpositive_dt(self):
        series = TimeSeries("bytes", 8)
        series.append(100, 1.0)
        series.append(100, 2.0)
        assert series.rates() == []


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c", (1.0, 2.0)) is registry.histogram("c", (1.0, 2.0))

    def test_histogram_bounds_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (1.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("lat", (1.0, 3.0))

    def test_track_rejects_duplicates_and_bad_kind(self):
        registry = MetricsRegistry()
        registry.track("x", lambda: 0.0)
        with pytest.raises(ValueError, match="already tracked"):
            registry.track("x", lambda: 1.0)
        with pytest.raises(ValueError, match="kind"):
            registry.track("y", lambda: 0.0, kind="rate")

    def test_sampling_off_the_event_loop(self):
        env = EventLoop()
        registry = MetricsRegistry(series_capacity=16)
        state = {"value": 0.0}
        registry.track("v", lambda: state["value"], kind="cumulative")

        def bump() -> None:
            state["value"] += 10.0

        for tick in range(1, 10):
            env.schedule_at(tick * 1_000, bump)
        registry.start_sampling(env, interval_ns=2_000, horizon_ns=10_000)
        env.run_until(10_000)
        points = registry.series["v"].points()
        assert registry.samples_taken == len(points) == 5
        assert [t for t, _v in points] == [2_000, 4_000, 6_000, 8_000, 10_000]
        # Bumps land at 1..9 us, so each 2 us interval gains +20 except
        # the last (only the 9 us bump falls inside 8..10 us): the
        # cumulative-series export turns that into per-second rates.
        export = validate_metrics(registry.export())
        rates = [rate for _t, rate in export["series"]["v"]["rates_per_s"]]
        assert rates == pytest.approx([1e7, 1e7, 1e7, 5e6])

    def test_export_validates_and_is_plain_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("evictions").inc(3)
        registry.gauge("occupancy").set(0.5)
        registry.histogram("latency_us", LATENCY_BUCKETS_US).observe(42.0)
        registry.track("g", lambda: 1.0)
        registry.sample(100)
        export = validate_metrics(registry.export())
        json.dumps(export)  # must serialize without custom encoders
        assert export["counters"]["evictions"] == 3
        assert export["series"]["g"]["kind"] == "gauge"

    def test_schema_rejects_malformed_export(self):
        registry = MetricsRegistry()
        export = registry.export()
        export.pop("series")
        with pytest.raises(SchemaError, match="missing key"):
            validate_metrics(export)
