"""Unit tests for telemetry: latency recorder, goodput math and reports."""

from dataclasses import fields

import pytest

from repro.telemetry.goodput import gbps, goodput_gain_percent, savings_percent
from repro.telemetry.latency import LatencyRecorder
from repro.telemetry.report import (
    COMPARISON_COLUMNS,
    ComparisonReport,
    DeploymentReport,
    FOLD_RULES,
    HEALTHY_DROP_RATE,
    fold_reports,
    render_table,
)


class TestLatencyRecorder:
    def test_mean_and_percentiles(self):
        recorder = LatencyRecorder()
        for value in (1_000, 2_000, 3_000, 4_000, 100_000):
            recorder.record(value)
        assert recorder.mean_us() == pytest.approx(22.0)
        assert recorder.max_us() == pytest.approx(100.0)
        assert recorder.percentile_us(50) == pytest.approx(3.0)
        assert recorder.jitter_us() == pytest.approx(78.0)

    def test_empty_recorder_returns_zero(self):
        recorder = LatencyRecorder()
        assert recorder.mean_us() == 0.0
        assert recorder.percentile_us(99) == 0.0

    def test_rejects_negative_and_bad_percentile(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(-1)
        with pytest.raises(ValueError):
            recorder.percentile_us(0)

    def test_since_excludes_warmup_samples(self):
        recorder = LatencyRecorder()
        for value in (1_000, 1_000, 50_000, 50_000):
            recorder.record(value)
        steady = recorder.since(2)
        assert steady.count == 2
        assert steady.mean_us() == pytest.approx(50.0)


class TestLatencyEdgeCases:
    """Percentile/jitter behaviour at the boundaries of the sample space."""

    def test_empty_recorder_is_all_zero(self):
        recorder = LatencyRecorder()
        assert recorder.count == 0
        assert recorder.max_us() == 0.0
        assert recorder.jitter_us() == 0.0
        assert recorder.percentile_us(0.001) == 0.0
        assert recorder.percentile_us(100) == 0.0
        assert recorder.mean_us() == 0.0

    def test_single_sample_dominates_every_percentile(self):
        recorder = LatencyRecorder()
        recorder.record(7_000)
        for percentile in (0.1, 1, 50, 99, 99.999, 100):
            assert recorder.percentile_us(percentile) == pytest.approx(7.0)
        assert recorder.mean_us() == recorder.max_us() == pytest.approx(7.0)
        assert recorder.jitter_us() == 0.0

    def test_zero_latency_sample_is_legal(self):
        recorder = LatencyRecorder()
        recorder.record(0)
        assert recorder.count == 1
        assert recorder.mean_us() == 0.0

    def test_duplicate_timestamps_collapse_percentile_spread(self):
        # Same-timestamp bursts produce runs of identical latencies; the
        # nearest-rank percentiles must sit exactly on the duplicate
        # value with zero spread, not interpolate around it.
        recorder = LatencyRecorder()
        for _ in range(99):
            recorder.record(5_000)
        recorder.record(50_000)
        assert recorder.percentile_us(50) == pytest.approx(5.0)
        assert recorder.percentile_us(99) == pytest.approx(5.0)
        assert recorder.percentile_us(99.5) == pytest.approx(50.0)
        assert recorder.percentile_us(100) == pytest.approx(50.0)

    def test_percentile_bounds_are_enforced(self):
        recorder = LatencyRecorder()
        recorder.record(1_000)
        for bad in (0, -5, 100.1):
            with pytest.raises(ValueError):
                recorder.percentile_us(bad)

    def test_since_boundaries(self):
        recorder = LatencyRecorder()
        for value in (1_000, 2_000, 3_000):
            recorder.record(value)
        assert recorder.since(0).count == 3
        assert recorder.since(3).count == 0
        assert recorder.since(3).mean_us() == 0.0
        assert recorder.since(99).count == 0  # beyond the end is empty, not an error

    def test_since_view_shares_no_future_samples(self):
        recorder = LatencyRecorder()
        recorder.record(1_000)
        view = recorder.since(1)
        recorder.record(9_000)
        assert view.count == 0  # the view snapshot does not grow


class TestGoodputWindowBoundaries:
    """gbps() and gain math at degenerate windows and baselines."""

    def test_zero_width_window_is_explicit_zero(self):
        assert gbps(1_000, 0) == 0.0

    def test_negative_window_raises(self):
        # A negative window means the caller swapped interval ends; the
        # old behavior returned 0.0 and masked the bug as "no goodput".
        with pytest.raises(ValueError):
            gbps(1_000, -5)
        with pytest.raises(ValueError):
            gbps(0, -1)

    def test_zero_bytes_over_any_window(self):
        assert gbps(0, 1) == 0.0
        assert gbps(0, 10**12) == 0.0

    def test_sub_nanosecond_window_is_well_defined(self):
        assert gbps(1, 0.5) == pytest.approx(16.0)

    def test_gain_and_savings_with_zero_baselines(self):
        assert goodput_gain_percent(5.0, 0.0) == 0.0
        assert goodput_gain_percent(0.0, 2.0) == pytest.approx(-100.0)
        assert savings_percent(0.0, 5.0) == 0.0
        assert savings_percent(10.0, 0.0) == pytest.approx(100.0)

    def test_negative_baselines_raise(self):
        with pytest.raises(ValueError):
            goodput_gain_percent(5.0, -1.0)
        with pytest.raises(ValueError):
            savings_percent(-1.0, 5.0)
        assert savings_percent(10.0, 12.0) == pytest.approx(-20.0)


class TestGoodputMath:
    def test_gbps_conversion(self):
        assert gbps(125, 1_000) == pytest.approx(1.0)
        assert gbps(100, 0) == 0.0

    def test_gain_and_savings(self):
        assert goodput_gain_percent(1.3, 1.0) == pytest.approx(30.0)
        assert goodput_gain_percent(1.0, 0.0) == 0.0
        assert savings_percent(10.0, 9.0) == pytest.approx(10.0)
        assert savings_percent(0.0, 1.0) == 0.0


class TestReports:
    def _report(self, deployment="baseline", **kwargs):
        defaults = dict(
            deployment=deployment,
            send_rate_gbps=10.0,
            duration_ns=1_000_000,
            packets_sent=10_000,
            packets_delivered=10_000,
            packets_dropped=0,
            goodput_to_nf_gbps=0.5,
            avg_latency_us=30.0,
            pcie_gbps=10.0,
        )
        defaults.update(kwargs)
        return DeploymentReport(**defaults)

    def test_drop_rate_and_health(self):
        healthy = self._report(packets_dropped=5)
        unhealthy = self._report(packets_dropped=100)
        assert healthy.drop_rate < HEALTHY_DROP_RATE and healthy.healthy
        assert not unhealthy.healthy

    def test_comparison_gain_and_savings(self):
        comparison = ComparisonReport(
            baseline=self._report(goodput_to_nf_gbps=0.5, pcie_gbps=10.0, avg_latency_us=30.0),
            payloadpark=self._report(
                deployment="payloadpark",
                goodput_to_nf_gbps=0.6,
                pcie_gbps=8.8,
                avg_latency_us=27.0,
            ),
        )
        assert comparison.goodput_gain_percent == pytest.approx(20.0)
        assert comparison.pcie_savings_percent == pytest.approx(12.0)
        assert comparison.latency_delta_us == pytest.approx(-3.0)
        assert comparison.latency_win_percent == pytest.approx(10.0)

    def test_every_field_declares_how_it_folds(self):
        rules = {
            spec.name: spec.metadata["fold"] for spec in fields(DeploymentReport) if spec.init
        }
        assert set(rules.values()) <= set(FOLD_RULES)
        assert [spec.name for spec in fields(DeploymentReport) if not spec.init] == ["servers"]
        assert rules["avg_latency_us"] == "mean"
        assert {name for name, rule in rules.items() if rule == "max"} == {
            "p99_latency_us", "max_latency_us", "jitter_us", "peak_queue_bytes",
        }
        assert {name for name, rule in rules.items() if rule == "first"} == {
            "deployment", "send_rate_gbps", "duration_ns",
        }

    def test_fold_combines_each_field_by_its_rule(self):
        left = self._report(
            goodput_to_nf_gbps=0.1, avg_latency_us=30.0, p99_latency_us=50.0,
            drop_breakdown={"link_drops": 3, "server_overflow": 1},
        )
        middle = self._report(goodput_to_nf_gbps=0.2, avg_latency_us=10.0, p99_latency_us=90.0)
        right = self._report(
            goodput_to_nf_gbps=0.3, avg_latency_us=20.0, p99_latency_us=70.0,
            drop_breakdown={"link_drops": 4, "server_overflow": 0},
        )
        total = fold_reports([left, middle, right])
        assert (total.deployment, total.send_rate_gbps, total.duration_ns) == (
            "baseline", 10.0, 1_000_000,
        )
        assert total.packets_sent == 30_000
        # Floats add left to right; every golden multi-server row depends on it.
        assert total.goodput_to_nf_gbps == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert total.avg_latency_us == 20.0
        assert total.p99_latency_us == 90.0
        assert total.drop_breakdown == {"link_drops": 7, "server_overflow": 1}
        assert total.servers == [left, middle, right]

    def test_fold_of_one_report_is_that_report(self):
        report = self._report(drop_breakdown={"link_drops": 3}, jitter_us=4.0)
        assert fold_reports([report]) == report
        with pytest.raises(ValueError):
            fold_reports([])

    def test_rows_render_as_table(self):
        comparison = ComparisonReport(baseline=self._report(), payloadpark=self._report())
        text = render_table([comparison.as_row()])
        assert "send_rate_gbps" in text
        assert "|" in text

    def test_comparison_columns_are_selected_by_name(self):
        comparison = ComparisonReport(
            baseline=self._report(goodput_to_nf_gbps=0.123456, pcie_gbps=10.12345),
            payloadpark=self._report(goodput_to_nf_gbps=0.2, packets_dropped=5_000),
        )
        assert comparison.as_row(
            "payloadpark_healthy", "baseline_goodput_gbps", "baseline_pcie_gbps"
        ) == {
            "payloadpark_healthy": False,
            "baseline_goodput_gbps": 0.1235,
            "baseline_pcie_gbps": 10.123,
        }
        assert list(comparison.as_row()) == list(COMPARISON_COLUMNS)
        with pytest.raises(KeyError):
            comparison.column("goodput")

    def test_render_table_empty(self):
        assert render_table([]) == "(no data)"

    def test_drop_rate_with_nothing_sent(self):
        report = self._report(packets_sent=0, packets_dropped=0)
        assert report.drop_rate == 0.0
        assert report.healthy

    def test_deployment_as_row_is_flat_and_rounded(self):
        row = self._report(avg_latency_us=30.123456).as_row()
        assert row["avg_latency_us"] == 30.12
        assert row["healthy"] is True
        assert set(row) >= {"deployment", "send_rate_gbps", "goodput_gbps",
                            "drop_rate", "premature_evictions"}

    def test_latency_win_percent_degenerate_baseline(self):
        comparison = ComparisonReport(
            baseline=self._report(avg_latency_us=0.0),
            payloadpark=self._report(deployment="payloadpark", avg_latency_us=5.0),
        )
        assert comparison.latency_win_percent == 0.0

    def test_render_table_with_explicit_columns_fills_missing_cells(self):
        text = render_table(
            [{"a": 1}, {"b": 2}], columns=["a", "b"]
        )
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "a"
        assert len(lines) == 4  # header, separator, two rows
