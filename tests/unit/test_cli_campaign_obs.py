"""CLI tests for campaign serve and obs diff/runs."""

import json
import logging

import pytest

from repro.cli import main
from repro.orchestrator.executor import _campaign_worker_init
from repro.orchestrator.store import ResultStore, events_path_for

CAMPAIGN_YAML = """\
name: cli-bus
scenario: fw_nat_lb_10ge
time_scale: 0.05
grid:
  send_rate_gbps: [2.0, 4.0]
  expiry_threshold: [1]
"""


def _metrics_export(counters):
    return {
        "schema": "repro.metrics/v1",
        "sample_interval_ns": 50_000,
        "samples_taken": 10,
        "counters": counters,
        "gauges": {},
        "histograms": {},
        "series": {},
    }


@pytest.fixture()
def campaign_spec(tmp_path):
    spec = tmp_path / "campaign.yaml"
    spec.write_text(CAMPAIGN_YAML)
    return spec


class TestCampaignRunBus:
    def test_run_writes_events_sidecar_by_default(self, tmp_path, campaign_spec, capsys):
        store = tmp_path / "cli-bus.jsonl"
        assert main([
            "campaign", "run", str(campaign_spec),
            "--store", str(store), "--workers", "1",
        ]) == 0
        events = events_path_for(store)
        assert events.exists()
        types = [json.loads(line)["type"]
                 for line in events.read_text().splitlines()]
        assert "campaign_started" in types
        assert "campaign_finished" in types

    def test_no_bus_suppresses_sidecar(self, tmp_path, campaign_spec):
        store = tmp_path / "cli-nobus.jsonl"
        assert main([
            "campaign", "run", str(campaign_spec),
            "--store", str(store), "--workers", "1", "--no-bus",
        ]) == 0
        assert not events_path_for(store).exists()


class TestCampaignServeCLI:
    def test_posthoc_snapshot_serves_and_exits(self, tmp_path, campaign_spec, capsys):
        store_path = tmp_path / "cli-bus.jsonl"
        store = ResultStore(store_path)
        store.append({
            "spec_hash": "aa", "scenario": "fw_nat_lb_10ge",
            "params": {"send_rate_gbps": 2.0}, "status": "ok",
            "wall_time_s": 1.0,
        })
        assert main([
            "campaign", "serve", str(campaign_spec),
            "--store", str(store_path), "--port", "0",
            "--no-follow", "--max-seconds", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving campaign 'cli-bus'" in out
        assert "/metrics" in out

    def test_follow_mode_starts_and_stops(self, tmp_path, campaign_spec, capsys):
        store_path = tmp_path / "cli-bus.jsonl"
        assert main([
            "campaign", "serve", str(campaign_spec),
            "--store", str(store_path), "--port", "0",
            "--poll-interval", "0.02", "--max-seconds", "0.05",
        ]) == 0
        assert "(following)" in capsys.readouterr().out


class TestObsCLI:
    def test_diff_prints_biggest_movers(self, tmp_path, capsys):
        a = tmp_path / "a.metrics.json"
        b = tmp_path / "b.metrics.json"
        a.write_text(json.dumps(_metrics_export({"parked": 100, "evicted": 10})))
        b.write_text(json.dumps(_metrics_export({"parked": 300, "evicted": 11})))
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "parked" in out and "+200.00%" in out

    def test_diff_json_mode(self, tmp_path, capsys):
        a = tmp_path / "a.metrics.json"
        b = tmp_path / "b.metrics.json"
        a.write_text(json.dumps(_metrics_export({"parked": 100})))
        b.write_text(json.dumps(_metrics_export({"parked": 150})))
        assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["parked"]["delta"] == 50

    def test_diff_bad_export_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.metrics.json"
        a.write_text("{bad")
        assert main(["obs", "diff", str(a), str(a)]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_runs_lists_stores(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "grid.jsonl")
        store.append({"spec_hash": "a", "status": "ok"})
        assert main(["obs", "runs", "--root", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["campaign"] == "grid"

    def test_runs_empty_root(self, tmp_path, capsys):
        assert main(["obs", "runs", "--root", str(tmp_path / "none")]) == 0
        assert "no campaign stores" in capsys.readouterr().out


class TestWorkerLogLevelPropagation:
    def test_initializer_applies_cli_log_level(self):
        root = logging.getLogger("repro")
        previous_level = root.level
        previous_handlers = root.handlers[:]
        try:
            _campaign_worker_init(None, "debug", 5.0)
            assert root.level == logging.DEBUG
            assert len(root.handlers) == 1
        finally:
            root.handlers[:] = previous_handlers
            root.setLevel(previous_level)

    def test_initializer_without_level_leaves_logging_alone(self):
        root = logging.getLogger("repro")
        previous_handlers = root.handlers[:]
        _campaign_worker_init(None, None, 5.0)
        assert root.handlers == previous_handlers
