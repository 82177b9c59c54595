"""Unit tests for the campaign-store index (``repro obs runs``) and obs diff."""

import json

import pytest

from repro.obs.diff import diff_metrics, format_diff, load_metrics_export
from repro.obs.schema import SchemaError
from repro.orchestrator.store import ResultStore, campaign_runs


def _metrics_export(counters=None, gauges=None, series=None):
    return {
        "schema": "repro.metrics/v1",
        "sample_interval_ns": 50_000,
        "samples_taken": 10,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": {},
        "series": series or {},
    }


class TestCampaignRuns:
    def test_campaign_runs_skip_events_sidecars(self, tmp_path):
        store = ResultStore(tmp_path / "grid.jsonl")
        store.append({"spec_hash": "a", "status": "ok"})
        store.append({"spec_hash": "b", "status": "violation",
                      "violations": [{"check": "c", "message": "m"}]})
        store.append({"type": "cell_started", "spec_hash": "c", "pid": 7})
        # The sidecar older versions wrote beside the store.
        (tmp_path / "grid.events.jsonl").write_text("{}\n")
        rows = campaign_runs(tmp_path)
        assert len(rows) == 1
        assert rows[0]["campaign"] == "grid"
        assert rows[0]["cells"] == 2
        assert rows[0]["violation"] == 1
        assert rows[0]["violations_total"] == 1

    def test_sharded_store_is_one_campaign_entry(self, tmp_path):
        sharded = ResultStore(tmp_path / "grid.jsonl", shards=3)
        hashes = [f"{value:016x}" for value in range(6)]
        for spec_hash in hashes:
            sharded.append({"spec_hash": spec_hash, "status": "ok"})
        sharded.append({"spec_hash": hashes[0], "status": "error"})  # stale retry
        other = ResultStore(tmp_path / "other.jsonl")
        other.append({"spec_hash": "zz", "status": "exhausted", "attempts": 3})
        rows = campaign_runs(tmp_path)
        assert [row["store"] for row in rows] == [
            str(tmp_path / "grid.jsonl"), str(tmp_path / "other.jsonl"),
        ]
        grid = next(row for row in rows if row["campaign"] == "grid")
        assert grid["cells"] == 6
        assert grid["ok"] == 6  # ok-wins over the later failed retry
        assert next(r for r in rows if r["campaign"] == "other")["exhausted"] == 1


class TestObsDiff:
    def test_counter_and_gauge_deltas(self):
        a = _metrics_export(counters={"parked": 100}, gauges={"occupancy": 0.5})
        b = _metrics_export(counters={"parked": 150}, gauges={"occupancy": 0.25})
        diff = diff_metrics(a, b)
        assert diff["counters"]["parked"]["delta"] == 50
        assert diff["counters"]["parked"]["percent"] == pytest.approx(50.0)
        assert diff["gauges"]["occupancy"]["percent"] == pytest.approx(-50.0)

    def test_one_sided_metrics_marked(self):
        diff = diff_metrics(
            _metrics_export(counters={"old_only": 1}),
            _metrics_export(counters={"new_only": 2}),
        )
        assert diff["counters"]["old_only"]["b"] is None
        assert diff["counters"]["new_only"]["a"] is None
        text = format_diff(diff)
        assert "new" in text and "gone" in text

    def test_series_compared_on_final_value(self):
        a = _metrics_export(series={"goodput": {
            "kind": "gauge", "points": [[0, 1.0], [1, 2.0]], "dropped_samples": 0}})
        b = _metrics_export(series={"goodput": {
            "kind": "gauge", "points": [[0, 1.0], [1, 4.0]], "dropped_samples": 0}})
        diff = diff_metrics(a, b)
        assert diff["series_last"]["goodput"]["delta"] == pytest.approx(2.0)

    def test_histogram_count_and_mean_deltas(self):
        a = _metrics_export()
        b = _metrics_export()
        a["histograms"]["lat"] = {"bounds": [1], "counts": [2, 0], "count": 2,
                                  "mean": 0.5}
        b["histograms"]["lat"] = {"bounds": [1], "counts": [3, 1], "count": 4,
                                  "mean": 0.75}
        diff = diff_metrics(a, b)
        assert diff["histograms"]["lat"]["count_delta"] == 2
        assert diff["histograms"]["lat"]["mean_delta"] == pytest.approx(0.25)

    def test_format_diff_sorts_biggest_movers_first(self):
        a = _metrics_export(counters={"small": 100, "big": 100})
        b = _metrics_export(counters={"small": 101, "big": 300})
        text = format_diff(diff_metrics(a, b))
        assert text.index("big") < text.index("small")

    def test_empty_diff_renders_placeholder(self):
        assert "no comparable metrics" in format_diff(
            diff_metrics(_metrics_export(), _metrics_export())
        )


class TestLoadMetricsExport:
    def test_loads_file_and_validates(self, tmp_path):
        path = tmp_path / "run.metrics.json"
        path.write_text(json.dumps(_metrics_export(counters={"x": 1})))
        assert load_metrics_export(path)["counters"]["x"] == 1

    def test_directory_with_single_export(self, tmp_path):
        (tmp_path / "a.metrics.json").write_text(json.dumps(_metrics_export()))
        assert load_metrics_export(tmp_path)["schema"] == "repro.metrics/v1"

    def test_directory_without_export_fails(self, tmp_path):
        with pytest.raises(SchemaError, match="no .*metrics.json"):
            load_metrics_export(tmp_path)

    def test_ambiguous_directory_fails(self, tmp_path):
        (tmp_path / "a.metrics.json").write_text(json.dumps(_metrics_export()))
        (tmp_path / "b.metrics.json").write_text(json.dumps(_metrics_export()))
        with pytest.raises(SchemaError, match="ambiguous"):
            load_metrics_export(tmp_path)

    def test_invalid_json_fails(self, tmp_path):
        path = tmp_path / "bad.metrics.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="unreadable"):
            load_metrics_export(path)
