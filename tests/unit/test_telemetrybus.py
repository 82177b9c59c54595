"""Unit tests for campaign events and the campaign monitor."""

import logging
import time

import pytest

from repro.orchestrator.telemetrybus import (
    CampaignMonitor,
    CellTagFilter,
    cell_context,
    configure_worker_logging,
    current_cell_hash,
    events_from_record,
)


def _finished(spec_hash, status="ok", wall=1.0, params=None, **extra):
    return {
        "type": "cell_finished",
        "spec_hash": spec_hash,
        "scenario": "fw_nat_lb_10ge",
        "params": params or {"send_rate_gbps": 4.0},
        "status": status,
        "wall_time_s": wall,
        "ts": 100.0,
        **extra,
    }


class TestEventsFromRecord:
    def test_plain_ok_record_yields_one_finished_event(self):
        events = events_from_record(
            {
                "spec_hash": "abc",
                "scenario": "fw_nat_lb_10ge",
                "params": {"send_rate_gbps": 2.0},
                "status": "ok",
                "wall_time_s": 1.5,
            }
        )
        assert [event["type"] for event in events] == ["cell_finished"]
        assert events[0]["spec_hash"] == "abc"
        assert events[0]["wall_time_s"] == 1.5
        assert "ts" not in events[0]  # appended before records carried one

    def test_violations_and_observability_become_events(self):
        events = events_from_record(
            {
                "spec_hash": "abc",
                "scenario": "s",
                "params": {},
                "status": "violation",
                "wall_time_s": 1.0,
                "error": "1 invariant violation(s)",
                "violations": [
                    {"check": "packet-conservation", "message": "lost 3",
                     "scenario": "s", "deployment": "payloadpark"},
                ],
                "observability": [{"deployment": "baseline"}],
                "ts": 5.0,
            }
        )
        assert [event["type"] for event in events] == [
            "cell_finished", "violation", "obs_summary",
        ]
        # Each carries the record's append time (/cells finished_ts,
        # /violations ts).
        assert {event["ts"] for event in events} == {5.0}
        assert events[0]["error"].startswith("1 invariant")
        assert events[1]["check"] == "packet-conservation"
        assert events[2]["summaries"] == 1


class TestCampaignMonitor:
    def test_progress_counts_and_state(self):
        monitor = CampaignMonitor(total=4)
        monitor.handle({"type": "campaign_started", "total": 4, "workers": 2,
                        "ts": 1.0})
        monitor.handle(_finished("a"))
        monitor.handle(_finished("b", status="error", error="boom"))
        status = monitor.status()
        assert status["cells_total"] == 4
        assert status["cells_done"] == 2
        assert status["cells_ok"] == 1
        assert status["cells_error"] == 1
        assert status["cells_pending"] == 2
        assert status["progress"] == 0.5
        assert status["state"] == "idle"

    def test_eta_derives_from_completed_wall_times_and_workers(self):
        monitor = CampaignMonitor(total=4)
        monitor.handle({"type": "campaign_started", "total": 4, "workers": 2})
        monitor.handle(_finished("a", wall=2.0))
        monitor.handle(_finished("b", wall=4.0))
        status = monitor.status()
        # mean 3.0s × 2 remaining / 2 workers
        assert status["eta_s"] == pytest.approx(3.0)
        assert status["mean_cell_wall_s"] == pytest.approx(3.0)

    def test_retry_and_worker_death_events_fold_into_status(self):
        monitor = CampaignMonitor(total=2)
        monitor.handle({"type": "cell_started", "spec_hash": "a",
                        "scenario": "s", "params": {}, "pid": 10, "ts": 1.0})
        monitor.handle({"type": "worker_died", "worker": 0, "pid": 10,
                        "reason": "crashed", "spec_hash": "a", "ts": 2.0})
        monitor.handle({"type": "cell_retried", "spec_hash": "a",
                        "scenario": "s", "params": {}, "attempt": 1,
                        "reason": "crashed", "backoff_s": 0.5, "ts": 2.0})
        status = monitor.status()
        assert status["retries_total"] == 1
        assert status["workers_died"] == 1
        assert monitor.cells["a"]["status"] == "running"
        assert monitor.cells["a"]["retries"] == 1
        assert monitor.cells["a"]["retry_reason"] == "crashed"
        # The retry is transparent once the cell lands.
        monitor.handle(_finished("a"))
        assert monitor.cells["a"]["status"] == "ok"

    def test_exhausted_is_terminal_and_counted(self):
        monitor = CampaignMonitor(total=2)
        monitor.handle(_finished("a"))
        monitor.handle(_finished("b", status="exhausted", wall=0.0, attempts=3,
                                 error="retry budget exhausted"))
        status = monitor.status()
        assert status["cells_done"] == 2
        assert status["cells_exhausted"] == 1
        assert status["cells_pending"] == 0
        assert monitor.cells["b"]["status"] == "exhausted"
        # The exhausted marker's 0.0 wall time must not skew the mean.
        assert status["mean_cell_wall_s"] == pytest.approx(1.0)

    def test_exhausted_record_event_carries_attempts(self):
        events = events_from_record(
            {
                "spec_hash": "abc",
                "scenario": "s",
                "params": {},
                "status": "exhausted",
                "attempts": 3,
                "error": "retry budget exhausted",
                "wall_time_s": 0.0,
            }
        )
        assert events[0]["type"] == "cell_finished"
        assert events[0]["status"] == "exhausted"
        assert events[0]["attempts"] == 3

    def test_eta_is_zero_once_finished(self):
        monitor = CampaignMonitor(total=1)
        monitor.handle(_finished("a"))
        monitor.handle({"type": "campaign_finished", "executed": 1})
        status = monitor.status()
        assert status["state"] == "finished"
        assert status["eta_s"] == 0.0

    def test_eta_is_null_when_finished_without_completed_cells(self):
        # A monitor can be marked finished before any terminal record
        # arrives (e.g. rebuilt from a store of running cells); claiming
        # "finished in 0.0s" at t=0 was the regression — eta_s must stay
        # null until the first completed cell.
        monitor = CampaignMonitor(total=2)
        monitor.handle({"type": "cell_started", "spec_hash": "a",
                        "scenario": "s", "params": {}, "pid": 1, "ts": 5.0})
        monitor.handle({"type": "cell_started", "spec_hash": "b",
                        "scenario": "s", "params": {}, "pid": 2, "ts": 5.0})
        monitor.finished = True
        status = monitor.status()
        assert status["state"] == "finished"
        assert status["eta_s"] is None
        # The Prometheus exposition must omit the ETA line, not emit 0.0.
        from repro.orchestrator.serve import prometheus_text

        text = prometheus_text(status)
        assert "repro_campaign_eta_seconds" not in text
        # Once a cell completes, the ETA line comes back.
        monitor.handle(_finished("a"))
        monitor.handle(_finished("b"))
        finished = monitor.status()
        assert finished["eta_s"] == 0.0
        assert "repro_campaign_eta_seconds" in prometheus_text(finished)

    def test_monitor_from_store_ignores_running_cells_for_finished(self, tmp_path):
        # monitor_from_store used to flip `finished` whenever the number
        # of *known* cells reached the total, counting still-running
        # cells replayed from their cell_started events.
        from repro.orchestrator.serve import monitor_from_store
        from repro.orchestrator.store import ResultStore

        monitor = monitor_from_store()
        assert monitor.status()["state"] == "idle"

        def record(spec_hash):
            return {"spec_hash": spec_hash, "scenario": "s", "params": {},
                    "status": "ok", "wall_time_s": 1.0}

        class _Campaign:
            point_count = 2
            name = "c"
            scenario = "s"
            mode = "both"

        store = ResultStore(tmp_path / "c.jsonl")
        store.append(record("a"))
        partial = monitor_from_store(campaign=_Campaign(), store=store)
        partial.handle({"type": "cell_started", "spec_hash": "b",
                        "scenario": "s", "params": {}, "pid": 1, "ts": 5.0})
        # Two known cells, but only one terminal: not finished.
        status = partial.status()
        assert status["state"] != "finished"
        assert status["cells_done"] == 1

        store.append(record("b"))
        complete = monitor_from_store(campaign=_Campaign(), store=store)
        status = complete.status()
        assert status["state"] == "finished"
        assert status["eta_s"] == 0.0

    @staticmethod
    def _resumed(first_run_finished):
        """A monitor fed a campaign started a day ago, then resumed 5 s
        ago with one cell running; the first run finished, or crashed."""
        now = time.time()
        monitor = CampaignMonitor(total=2)
        monitor.handle({"type": "campaign_started", "campaign": "c", "total": 2,
                        "ts": now - 86400.0})
        if first_run_finished:
            monitor.handle({"type": "campaign_finished", "executed": 0,
                            "ts": now - 86390.0})
            assert monitor.status()["elapsed_s"] is None
        else:
            monitor.handle({"type": "cell_started", "spec_hash": "a", "scenario": "s",
                            "params": {}, "pid": 1, "ts": now - 86399.0})
        monitor.handle({"type": "campaign_started", "campaign": "c", "total": 2,
                        "ts": now - 5.0})
        monitor.handle({"type": "cell_started", "spec_hash": "a", "scenario": "s",
                        "params": {}, "pid": 2, "ts": now - 4.0})
        return monitor

    def test_a_resumed_campaigns_elapsed_counts_from_the_resume(self):
        monitor = self._resumed(first_run_finished=True)
        status = monitor.status()
        assert status["state"] == "running"
        assert status["elapsed_s"] == pytest.approx(5.0, abs=1.0)
        monitor.handle(_finished("a"))
        monitor.handle({"type": "campaign_finished", "executed": 1})
        assert monitor.status()["elapsed_s"] is None  # finished: no clock

    def test_a_crash_resumed_campaigns_elapsed_counts_from_the_resume(self):
        status = self._resumed(first_run_finished=False).status()
        assert status["state"] == "running"
        assert status["elapsed_s"] == pytest.approx(5.0, abs=1.0)

    def test_running_cells_tracked_through_started_events(self):
        monitor = CampaignMonitor(total=2)
        monitor.handle({"type": "cell_started", "spec_hash": "a",
                        "scenario": "s", "params": {}, "pid": 1, "ts": 5.0})
        status = monitor.status()
        assert status["cells_running"] == 1
        assert status["state"] == "running"
        monitor.handle(_finished("a"))
        assert monitor.status()["cells_running"] == 0

    def test_heartbeat_updates_cell_timestamp(self):
        monitor = CampaignMonitor(total=1)
        monitor.handle({"type": "heartbeat", "spec_hash": "a", "ts": 9.0})
        assert monitor.cells["a"]["heartbeat_ts"] == 9.0

    def test_violations_deduplicate_on_replay(self):
        monitor = CampaignMonitor(total=1)
        violation = {"type": "violation", "spec_hash": "a", "scenario": "s",
                     "deployment": "payloadpark", "check": "c", "message": "m"}
        monitor.handle(violation)
        monitor.handle(dict(violation))  # replays fold to one ledger entry
        assert len(monitor.violations) == 1
        assert monitor.cells["a"]["violations"] == 1
        monitor.handle({**violation, "message": "different"})
        assert len(monitor.violations) == 2

    def test_slices_group_terminal_cells_per_axis_value(self):
        monitor = CampaignMonitor(total=4)
        monitor.handle(_finished("a", params={"rate": 2, "expiry": 1}, wall=1.0))
        monitor.handle(_finished("b", params={"rate": 2, "expiry": 4}, wall=3.0,
                                 status="error"))
        slices = monitor.status()["slices"]
        assert slices["rate"]["2"]["cells"] == 2
        assert slices["rate"]["2"]["ok"] == 1
        assert slices["rate"]["2"]["failed"] == 1
        assert slices["rate"]["2"]["mean_wall_s"] == pytest.approx(2.0)
        assert slices["expiry"]["1"]["cells"] == 1

    def test_events_ring_is_bounded_and_tail_ordered(self):
        monitor = CampaignMonitor(events_capacity=3)
        for index in range(5):
            monitor.handle({"type": "heartbeat", "spec_hash": "a", "seq": index})
        tail = monitor.events_tail(10)
        assert [event["seq"] for event in tail] == [2, 3, 4]
        assert [event["seq"] for event in monitor.events_tail(2)] == [3, 4]
        assert monitor.events_seen == 5

    def test_unknown_event_type_only_hits_the_ring(self):
        monitor = CampaignMonitor(total=1)
        monitor.handle({"type": "mystery", "payload": 1})
        assert monitor.cells == {}
        assert monitor.events_tail(5)[-1]["type"] == "mystery"


class TestWorkerLogging:
    def test_cell_context_sets_and_restores_hash(self):
        assert current_cell_hash() == "-"
        with cell_context("deadbeef"):
            assert current_cell_hash() == "deadbeef"
        assert current_cell_hash() == "-"

    def test_records_are_tagged_with_the_running_cell(self):
        record = logging.LogRecord("repro.x", logging.INFO, __file__, 1,
                                   "msg", (), None)
        with cell_context("cafef00d"):
            assert CellTagFilter().filter(record)
        assert record.cell == "cafef00d"

    def test_configure_worker_logging_sets_level_and_formatter(self):
        configure_worker_logging("debug")
        root = logging.getLogger("repro")
        try:
            assert root.level == logging.DEBUG
            assert len(root.handlers) == 1
            record = logging.LogRecord("repro.worker", logging.INFO, __file__,
                                       1, "hello", (), None)
            with cell_context("feedface"):
                for log_filter in root.handlers[0].filters:
                    log_filter.filter(record)
                formatted = root.handlers[0].format(record)
            assert "feedface" in formatted
            assert "hello" in formatted
        finally:
            configure_worker_logging("info")

    def test_configure_worker_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_worker_logging("loud")
