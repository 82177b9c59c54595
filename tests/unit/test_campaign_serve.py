"""Unit tests for the `repro campaign serve` HTTP layer."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.schema import (
    SchemaError,
    validate_campaign_cells,
    validate_campaign_event,
    validate_campaign_status,
    validate_campaign_violations,
)
from repro.orchestrator.serve import (
    CampaignServer,
    StoreFollower,
    monitor_from_store,
    prometheus_text,
)
from repro.cli import main
from repro.orchestrator.spec import CampaignSpec
from repro.orchestrator.store import TERMINAL_STATUSES, ResultStore
from repro.orchestrator.telemetrybus import CampaignMonitor, events_from_record


def _record(spec_hash, status="ok", violations=None, wall=1.0):
    record = {
        "spec_hash": spec_hash,
        "scenario": "fw_nat_lb_10ge",
        "params": {"send_rate_gbps": 4.0},
        "status": status,
        "wall_time_s": wall,
    }
    if violations is not None:
        record["violations"] = violations
    return record


def _populated_monitor():
    monitor = CampaignMonitor(total=3, campaign="demo")
    monitor.handle({"type": "campaign_started", "total": 3, "workers": 2,
                    "campaign": "demo", "ts": 1.0})
    monitor.handle({"type": "cell_finished", "spec_hash": "a", "scenario": "s",
                    "params": {"rate": 2}, "status": "ok", "wall_time_s": 1.0})
    monitor.handle({"type": "violation", "spec_hash": "b", "scenario": "s",
                    "deployment": "payloadpark", "check": "c", "message": "m"})
    monitor.handle({"type": "cell_finished", "spec_hash": "b", "scenario": "s",
                    "params": {"rate": 4}, "status": "violation",
                    "wall_time_s": 2.0})
    return monitor


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


class TestEndpoints:
    @pytest.fixture()
    def server(self):
        with CampaignServer(_populated_monitor()) as srv:
            yield srv

    def test_status_is_schema_valid_json(self, server):
        code, headers, body = _get(server.url + "/status")
        assert code == 200
        assert headers["Content-Type"] == "application/json"
        status = validate_campaign_status(json.loads(body))
        assert status["cells_done"] == 2
        assert status["violations_total"] == 1

    def test_cells_lists_every_known_cell(self, server):
        _, _, body = _get(server.url + "/cells")
        payload = validate_campaign_cells(json.loads(body))
        assert {cell["spec_hash"] for cell in payload["cells"]} == {"a", "b"}

    def test_violations_ledger(self, server):
        _, _, body = _get(server.url + "/violations")
        payload = validate_campaign_violations(json.loads(body))
        assert payload["violations"][0]["check"] == "c"

    def test_events_ndjson_tail_respects_n(self, server):
        _, headers, body = _get(server.url + "/events?n=2")
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = body.decode().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_campaign_event(json.loads(line))

    def test_events_rejects_non_integer_n(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/events?n=lots")
        assert excinfo.value.code == 400

    def test_metrics_is_prometheus_text(self, server):
        _, headers, body = _get(server.url + "/metrics")
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert 'repro_campaign_cells{campaign="demo",state="ok"} 1' in text
        assert 'repro_campaign_violations_total{campaign="demo"} 1' in text

    def test_index_names_the_endpoints(self, server):
        _, _, body = _get(server.url + "/")
        assert "/status" in json.loads(body)["endpoints"]

    def test_unknown_route_404s_with_index(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404


class TestPrometheusText:
    def test_renders_every_core_metric(self):
        text = prometheus_text(_populated_monitor().status())
        for name in ("repro_campaign_cells_total", "repro_campaign_cells_done",
                     "repro_campaign_progress", "repro_campaign_eta_seconds",
                     "repro_campaign_violations_total"):
            assert f"# TYPE {name} " in text

    def test_unlabelled_when_campaign_unknown(self):
        monitor = CampaignMonitor(total=1)
        text = prometheus_text(monitor.status())
        assert "repro_campaign_cells_total 1" in text

    def test_exhausted_state_and_fault_counters_render(self):
        monitor = CampaignMonitor(total=2)
        monitor.handle({"type": "cell_finished", "spec_hash": "a",
                        "scenario": "s", "params": {}, "status": "exhausted",
                        "wall_time_s": 0.0, "ts": 1.0})
        monitor.handle({"type": "worker_died", "worker": 0, "pid": 1,
                        "reason": "timeout", "spec_hash": "a", "ts": 1.0})
        text = prometheus_text(validate_campaign_status(monitor.status()))
        assert 'state="exhausted"} 1' in text
        assert "# TYPE repro_campaign_workers_died_total counter" in text
        assert "# TYPE repro_campaign_retries_total counter" in text


class TestMonitorFromStore:
    def test_replays_latest_records(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        store.append(_record("a", status="error"))
        store.append(_record("a", status="ok"))  # retry supersedes
        store.append(_record(
            "b", status="violation",
            violations=[{"check": "c", "message": "m", "scenario": "s",
                         "deployment": "payloadpark"}],
        ))
        monitor = monitor_from_store(store=store)
        status = validate_campaign_status(monitor.status())
        assert status["cells_ok"] == 1
        assert status["cells_violation"] == 1
        assert status["cells_error"] == 0  # superseded by the retry
        assert status["violations_total"] == 1

    def test_a_killed_campaigns_running_cell_reads_from_its_store(self, tmp_path):
        # The event lines carry what no record holds: workers, pids,
        # beats, and the cell the campaign was inside when it died.
        store = ResultStore(tmp_path / "c.jsonl")
        store.append({"type": "campaign_started", "total": 2, "workers": 2, "ts": 1.0})
        for spec_hash, pid, ts in (("a", 7, 2.0), ("b", 8, 2.5)):
            store.append({"type": "cell_started", "spec_hash": spec_hash,
                          "scenario": "s", "params": {}, "pid": pid, "ts": ts})
        store.append({"type": "heartbeat", "spec_hash": "a", "pid": 7, "ts": 3.0})
        store.append({**_record("b"), "ts": 4.0})
        status = validate_campaign_status(monitor_from_store(store=store).status())
        assert (status["cells_running"], status["cells_ok"]) == (1, 1)
        assert (status["state"], status["workers"]) == ("running", 2)
        cells = {
            cell["spec_hash"]: cell
            for cell in monitor_from_store(store=store).cells_payload()["cells"]
        }
        assert {key: cells["a"].get(key) for key in (
            "status", "pid", "started_ts", "heartbeat_ts", "finished_ts")} == {
            "status": "running", "pid": 7, "started_ts": 2.0,
            "heartbeat_ts": 3.0, "finished_ts": None}
        assert (cells["b"]["status"], cells["b"]["pid"], cells["b"]["finished_ts"]) == (
            "ok", 8, 4.0)

    def test_empty_store_serves_clean_state(self, tmp_path):
        monitor = monitor_from_store(store=ResultStore(tmp_path / "x.jsonl"))
        status = validate_campaign_status(monitor.status())
        assert status["cells_total"] == 0
        assert status["state"] == "idle"


class TestStoreFollower:
    def test_follows_appends_exactly_once(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        monitor = CampaignMonitor(total=2)
        follower = StoreFollower(monitor, store.path)
        assert follower.poll_once() == 0
        store.append(_record("a"))
        assert follower.poll_once() == 1
        assert follower.poll_once() == 0  # offset advanced; no re-fold
        store.append(_record("b"))
        follower.poll_once()
        assert monitor.status()["cells_done"] == 2

    @pytest.mark.parametrize("poll_interval_s, message", [
        (float("inf"), "poll_interval_s must be finite, got inf"),
        (float("nan"), "poll_interval_s must be finite, got nan"),
        (0.0, "poll_interval_s must be positive"),
        (-1.0, "poll_interval_s must be positive"),
    ], ids=["inf", "nan", "zero", "negative"])
    def test_poll_interval_is_checked_when_built(self, tmp_path, poll_interval_s, message):
        with pytest.raises(ValueError, match=message):
            StoreFollower(CampaignMonitor(total=1), tmp_path / "c.jsonl",
                          poll_interval_s=poll_interval_s)

    def test_torn_tail_line_waits_for_completion(self, tmp_path):
        store_path = tmp_path / "c.jsonl"
        monitor = CampaignMonitor(total=1)
        follower = StoreFollower(monitor, store_path)
        with store_path.open("w") as handle:
            handle.write(json.dumps(_record("a"))[:20])  # torn, no newline
        assert follower.poll_once() == 0
        with store_path.open("w") as handle:
            handle.write(json.dumps(_record("a")) + "\n")
        assert follower.poll_once() == 1

    def test_event_lines_reach_the_monitor_as_they_are(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        monitor = CampaignMonitor(total=1)
        follower = StoreFollower(monitor, store.path)
        store.append({"type": "cell_started", "spec_hash": "a", "scenario": "s",
                      "params": {}, "pid": 7, "ts": 1.0})
        assert follower.poll_once() == 1
        assert monitor.status()["cells_running"] == 1
        violation = {"check": "c", "message": "m", "scenario": "s",
                     "deployment": "payloadpark"}
        store.append({**_record("a", status="violation", violations=[violation]),
                      "ts": 2.0})
        assert follower.poll_once() == 1
        status = monitor.status()
        assert (status["cells_done"], status["violations_total"]) == (1, 1)
        (cell,) = monitor.cells_payload()["cells"]
        assert (cell["pid"], cell["started_ts"], cell["finished_ts"]) == (7, 1.0, 2.0)
        assert [event["type"] for event in monitor.events_tail()] == [
            "cell_started", "cell_finished", "violation",
        ]

    @pytest.mark.parametrize(
        "attempts, winner",
        [
            (("error", "ok"), "ok"),          # failed attempt, then its resume
            (("ok", "error"), "ok"),          # ok-wins: a later failure is history
            (("error", "exhausted"), "exhausted"),
        ],
    )
    def test_follower_and_post_hoc_monitor_apply_the_same_rule(
        self, tmp_path, attempts, winner
    ):
        """One spec hash, several store records, no event lines."""
        store = ResultStore(tmp_path / "c.jsonl")
        live = CampaignMonitor(total=1)
        follower = StoreFollower(live, store.path)
        for status in attempts:
            store.append(_record("a", status=status))
            follower.poll_once()
        post_hoc = monitor_from_store(store=ResultStore(store.path))
        for monitor in (live, post_hoc):
            status = monitor.status()
            assert status["cells_done"] == 1
            assert status[f"cells_{winner}"] == 1

    def test_malformed_complete_line_warns_like_the_store(self, tmp_path):
        """One reader: the follower reports the line `refresh` reports."""
        import logging

        store = ResultStore(tmp_path / "c.jsonl")
        store.append(_record("a"))
        with store.path.open("a") as handle:
            handle.write('{"spec_hash": "b", "status": "o\n')  # complete, not JSON
        store.append(_record("c"))
        messages = []

        class Capture(logging.Handler):
            def emit(self, record):
                messages.append(record.getMessage())

        store_logger = logging.getLogger("repro.orchestrator.store")
        handler = Capture()
        store_logger.addHandler(handler)
        try:
            assert ResultStore(store.path).refresh() == 2
            monitor = CampaignMonitor(total=2)
            assert StoreFollower(monitor, store.path).poll_once() == 2
        finally:
            store_logger.removeHandler(handler)
        assert len(messages) == 2 and messages[0] == messages[1]
        assert str(store.path) in messages[0] and "malformed" in messages[0]
        assert monitor.status()["cells_ok"] == 2

    def test_follows_shard_files_that_appear_mid_poll(self, tmp_path):
        """A sharded store's files are picked up live — even shards
        created after the follower started polling."""
        base = tmp_path / "c.jsonl"
        monitor = CampaignMonitor(total=3)
        follower = StoreFollower(monitor, base)
        assert follower.poll_once() == 0
        sharded = ResultStore(base, shards=2)
        sharded.append(_record("00"))  # shard 0
        sharded.append(_record("01"))  # shard 1
        assert follower.poll_once() == 2
        assert follower.poll_once() == 0  # offsets advanced per shard
        sharded.append(_record("02"))
        assert follower.poll_once() == 1
        assert monitor.status()["cells_done"] == 3

    def test_thread_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        monitor = CampaignMonitor(total=1)
        follower = StoreFollower(monitor, store.path, poll_interval_s=0.02)
        follower.start()
        store.append(_record("a"))
        deadline = 5.0
        import time
        while monitor.status()["cells_done"] < 1 and deadline > 0:
            time.sleep(0.02)
            deadline -= 0.02
        follower.stop()
        assert monitor.status()["cells_done"] == 1


#: status sequence of one cell's records -> index of the record that
#: speaks for it (ok wins, otherwise the most recent).
SEQUENCES = {
    ("error", "ok"): 1,
    ("ok", "error"): 0,
    ("error", "exhausted"): 1,
    ("violation", "ok"): 1,
    ("error", "error"): 1,
}


class TestReadSideParity:
    """Every reader of a campaign names the same winner per cell.

    The store's index (`latest_by_hash`, `campaign status`, `campaign
    report`, `obs runs`) and every way events reach a monitor — handed
    to it directly, a follower over a store of records alone or of
    records among event lines (in one file or across shards), the
    post-hoc read — must agree, whatever the delivery.
    """

    @pytest.mark.parametrize(
        "delivery",
        ["store only", "events only", "store with event lines",
         "sharded store with event lines"],
    )
    @pytest.mark.parametrize("sequence", SEQUENCES, ids="-".join)
    def test_same_winner_and_counts_everywhere(
        self, tmp_path, capsys, sequence, delivery
    ):
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "parity", "scenario": "fw_nat_lb_10ge",
            "grid": {"send_rate_gbps": [4.0]}, "time_scale": 0.05,
        }))
        campaign = CampaignSpec.from_file(spec)
        (cell,) = campaign.expand()
        records = [
            {**_record(cell.spec_hash, status=status, wall=attempt + 1.0),
             "metrics": {"attempt": attempt}}
            for attempt, status in enumerate(sequence)
        ]
        for attempt, record in enumerate(records):
            if record["status"] != "ok":
                record["error"] = f"attempt {attempt} failed"
        winner = records[SEQUENCES[sequence]]
        store = ResultStore(
            tmp_path / "parity.jsonl", shards=3 if delivery.startswith("sharded") else 1
        )
        monitor = CampaignMonitor(total=1)
        follower = StoreFollower(monitor, store.path)

        if delivery == "events only":
            for record in records:
                for event in events_from_record(record):
                    monitor.handle(event)
        for attempt, record in enumerate(records):
            if delivery.endswith("store with event lines"):
                # A line without `status` reads `ok`: none of these may
                # count as an outcome anywhere.
                for event in (
                    {"type": "cell_started", "pid": 100 + attempt},
                    {"type": "heartbeat", "pid": 100 + attempt},
                    {"type": "cell_retried", "attempt": attempt + 1,
                     "reason": "crashed"},
                ):
                    store.append({**event, "spec_hash": cell.spec_hash,
                                  "scenario": record["scenario"],
                                  "params": record["params"], "ts": 10.0})
            store.append(record)
            if delivery != "events only":  # the monitor never polls the store
                follower.poll_once()

        expected = {status: int(status == winner["status"]) for status in TERMINAL_STATUSES}
        for reader in (monitor, monitor_from_store(campaign, ResultStore(store.path))):
            status = validate_campaign_status(reader.status())
            assert {name: status[f"cells_{name}"] for name in TERMINAL_STATUSES} == expected
            (shown,) = reader.cells_payload()["cells"]
            assert (shown["status"], shown["wall_time_s"]) == (
                winner["status"], winner["wall_time_s"])
            assert shown.get("error") == winner.get("error")

        assert ResultStore(store.path).latest_by_hash() == {cell.spec_hash: winner}
        if delivery.startswith("sharded"):
            # The cell's events went where its records went: one shard
            # holds its whole story, in append order.
            (shard,) = store.reader_paths()
            assert shard != store.path
            assert len(shard.read_text().splitlines()) == 4 * len(records)

        store_args = [str(spec), "--store", str(store.path)]
        assert main(["campaign", "status", *store_args]) == 0
        printed = capsys.readouterr().out
        assert f"completed: {expected['ok']}" in printed
        assert f"failing:   {expected['error'] + expected['violation']} " in printed
        assert f"exhausted: {expected['exhausted']} " in printed
        assert main(["campaign", "report", *store_args, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["attempt"] for row in rows] == (
            [winner["metrics"]["attempt"]] if expected["ok"] else [])
        assert main(["obs", "runs", "--root", str(tmp_path), "--json"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert {name: run[name] for name in TERMINAL_STATUSES} == expected


class TestCampaignSchemas:
    def test_status_rejects_wrong_schema(self):
        status = _populated_monitor().status()
        status["schema"] = "repro.metrics/v1"
        with pytest.raises(SchemaError, match="schema"):
            validate_campaign_status(status)

    def test_status_rejects_inconsistent_counts(self):
        status = _populated_monitor().status()
        status["cells_done"] = 99
        with pytest.raises(SchemaError, match="cells_done"):
            validate_campaign_status(status)

    def test_cells_rejects_duplicate_hashes(self):
        payload = _populated_monitor().cells_payload()
        payload["cells"].append(dict(payload["cells"][0]))
        with pytest.raises(SchemaError, match="duplicate"):
            validate_campaign_cells(payload)

    def test_event_requires_spec_hash_for_cell_events(self):
        with pytest.raises(SchemaError, match="spec_hash"):
            validate_campaign_event({"type": "cell_finished", "ts": 1.0})
        validate_campaign_event({"type": "campaign_started", "ts": 1.0})
