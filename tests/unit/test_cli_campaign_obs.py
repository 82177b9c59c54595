"""CLI tests for campaign serve and obs diff/runs."""

import json
import logging

import pytest

from repro.cli import main
from repro.orchestrator.dispatcher import _dispatch_worker_main
from repro.orchestrator.store import ResultStore

CAMPAIGN_YAML = """\
name: cli-campaign
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


class TestCampaignRunEvents:
    def test_run_writes_its_events_into_the_store(self, tmp_path, campaign_spec, capsys):
        store = tmp_path / "cli-campaign.jsonl"
        assert main([
            "campaign", "run", str(campaign_spec),
            "--store", str(store), "--workers", "1",
        ]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "campaign.yaml", "cli-campaign.jsonl",
        ]
        types = [json.loads(line).get("type")
                 for line in store.read_text().splitlines()]
        assert types[0] == "campaign_started"
        assert types[-1] == "campaign_finished"
        assert types.count(None) == 2  # one record per cell

    def test_a_resume_appends_only_its_start_and_finish(self, tmp_path, campaign_spec, capsys):
        store = tmp_path / "cli-campaign.jsonl"
        argv = ["campaign", "run", str(campaign_spec), "--store", str(store),
                "--workers", "1"]
        assert main(argv) == 0
        first = store.read_text().splitlines()
        assert main(argv) == 0
        assert "0 executed" in capsys.readouterr().out
        lines = store.read_text().splitlines()
        assert lines[:len(first)] == first
        started, finished = map(json.loads, lines[len(first):])
        assert (started["type"], started["skipped"], started["pending"]) == (
            "campaign_started", 2, 0)
        assert (finished["type"], finished["executed"]) == ("campaign_finished", 0)
        assert ResultStore(store).record_count() == 2


class TestCampaignServeCLI:
    def test_posthoc_snapshot_serves_and_exits(self, tmp_path, campaign_spec, capsys):
        store_path = tmp_path / "cli-campaign.jsonl"
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
        assert "serving campaign 'cli-campaign'" in out
        assert "/metrics" in out

    def test_follow_mode_starts_and_stops(self, tmp_path, campaign_spec, capsys):
        store_path = tmp_path / "cli-campaign.jsonl"
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


class _ClosedPipe:
    """A dispatcher pipe whose first message is the shutdown sentinel."""

    def recv(self):
        return None


class TestWorkerLogLevelPropagation:
    def test_worker_applies_cli_log_level(self):
        root = logging.getLogger("repro")
        previous_level = root.level
        previous_handlers = root.handlers[:]
        try:
            _dispatch_worker_main(0, _ClosedPipe(), "debug")
            assert root.level == logging.DEBUG
            assert len(root.handlers) == 1
        finally:
            root.handlers[:] = previous_handlers
            root.setLevel(previous_level)

    def test_worker_without_level_leaves_logging_alone(self):
        root = logging.getLogger("repro")
        previous_handlers = root.handlers[:]
        _dispatch_worker_main(0, _ClosedPipe(), None)
        assert root.handlers == previous_handlers
