"""Fault-tolerance integration tests for the campaign dispatcher.

Chaos is injected through the ``REPRO_CAMPAIGN_CHAOS`` environment
variable (see :mod:`repro.orchestrator.dispatcher`): matching cells
SIGKILL their worker or hang on selected attempts, *without* touching
the specs — so a chaos run's records are directly comparable to a
clean run's.
"""

import json

import pytest

from repro.orchestrator import (
    CampaignExecutor,
    CampaignSpec,
    DispatchLoop,
    ResultStore,
    execute_run,
)
from repro.orchestrator.dispatcher import CHAOS_ENV
from repro.orchestrator.serve import monitor_from_store

#: Simulated-time scale keeping each run cheap while still exercising traffic.
FAST = 0.05


def chaos_campaign(rates=(2.0, 4.0, 6.0, 8.0)) -> CampaignSpec:
    return CampaignSpec(
        name="chaos-grid",
        scenario="fw_nat_lb_10ge",
        grid={"send_rate_gbps": list(rates)},
        time_scale=FAST,
    )


def event_types(monitor):
    return {event.get("type") for event in monitor.events_tail(0x10000)}


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_loses_nothing(self, tmp_path, monkeypatch):
        """Kill a worker mid-campaign: the campaign still completes with
        no lost or duplicated cells, and the retried cell's record is
        identical to a clean run's (modulo wall time)."""
        campaign = chaos_campaign()
        clean = CampaignExecutor(workers=2).run_campaign(campaign)
        assert clean.failed == 0

        # The worker holding the send_rate=4.0 cell SIGKILLs itself on
        # the first attempt — a real, unannounced worker death.
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps([{"match": {"send_rate_gbps": 4.0}, "crash_attempts": 1}]),
        )
        store = ResultStore(tmp_path / "grid.jsonl")
        summary = CampaignExecutor(workers=2, retry_backoff_s=0.05).run_campaign(
            campaign, store=store
        )
        assert summary.executed == 4
        assert summary.failed == 0
        assert summary.exhausted == 0

        # No lost or duplicated cells: exactly one record per grid point.
        records = store.load()
        assert len(records) == store.record_count() == 4
        assert {r["spec_hash"] for r in records} == {
            spec.spec_hash for spec in campaign.expand()
        }

        # The crash surfaced as event lines in the store, and a monitor
        # reading the store folds them in.
        monitor = monitor_from_store(campaign, store)
        assert {"worker_died", "cell_retried"} <= event_types(monitor)
        assert monitor.workers_died >= 1
        assert monitor.retries_total >= 1
        status = monitor.status()
        assert status["cells_ok"] == 4
        assert status["retries_total"] >= 1

        # The retried cell's record matches the clean run byte-for-byte
        # once the nondeterministic fields (wall time, and the append
        # time the store stamps) are dropped.
        clean_by_hash = {r["spec_hash"]: r for r in clean.records}
        for record in records:
            expected = dict(clean_by_hash[record["spec_hash"]])
            actual = dict(record)
            expected.pop("wall_time_s")
            actual.pop("wall_time_s")
            actual.pop("ts")
            assert actual == expected

    def test_killing_the_worker_that_holds_a_baseline_loses_nothing(self, monkeypatch):
        """One worker, two baselines of two cells each: with affinity it
        runs (r2,e1) (r2,e10) (r4,e1) (r4,e10), and the last SIGKILLs it
        while it holds both.  The replacement starts with an empty table
        and simulates r4's baseline again; every record equals the one
        its cell produces alone."""
        campaign = CampaignSpec(
            name="held-baseline",
            scenario="fw_nat_lb_10ge",
            grid={"send_rate_gbps": [2.0, 4.0], "expiry_threshold": [1, 10]},
            time_scale=FAST,
        )
        specs = campaign.expand()
        alone = {spec.spec_hash: execute_run(spec) for spec in specs}
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps([{"match": {"send_rate_gbps": 4.0, "expiry_threshold": 10},
                         "crash_attempts": 1}]),
        )
        records = list(DispatchLoop(processes=1, retry_backoff_s=0.05).run(specs))

        assert sorted(r["spec_hash"] for r in records) == sorted(alone)
        order = [(r["params"]["send_rate_gbps"], r["params"]["expiry_threshold"])
                 for r in records]
        assert order == [(2.0, 1), (2.0, 10), (4.0, 1), (4.0, 10)]
        assert [r["baseline_simulated"] for r in records] == [True, False, True, True]
        for record in records:
            expected = dict(alone[record["spec_hash"]])
            actual = dict(record)
            for key in ("wall_time_s", "baseline_simulated"):
                expected.pop(key)
                actual.pop(key)
            assert actual == expected

    def test_crash_applies_to_sharded_store_too(self, tmp_path, monkeypatch):
        campaign = chaos_campaign(rates=(2.0, 4.0))
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps([{"match": {"send_rate_gbps": 2.0}, "crash_attempts": 1}]),
        )
        store = ResultStore(tmp_path / "grid.jsonl", shards=3)
        summary = CampaignExecutor(workers=2, retry_backoff_s=0.05).run_campaign(
            campaign, store=store
        )
        assert summary.failed == 0
        assert store.completed_hashes() == {
            spec.spec_hash for spec in campaign.expand()
        }
        assert sorted(tmp_path.glob("grid.shard-*.jsonl"))


class TestCellTimeout:
    def test_hung_cell_is_killed_and_retried(self, tmp_path, monkeypatch):
        """A wedged cell blows its deadline, loses its worker, and
        succeeds on the retry — the campaign never stalls."""
        campaign = chaos_campaign(rates=(4.0, 8.0))
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps(
                [{"match": {"send_rate_gbps": 8.0}, "hang_attempts": 1, "hang_s": 60.0}]
            ),
        )
        store = ResultStore(tmp_path / "grid.jsonl")
        summary = CampaignExecutor(
            workers=2, cell_timeout_s=3.0, retry_backoff_s=0.05
        ).run_campaign(campaign, store=store)
        assert summary.executed == 2
        assert summary.failed == 0
        assert store.record_count() == 2
        retried = [
            event
            for event in monitor_from_store(campaign, store).events_tail(0x10000)
            if event.get("type") == "cell_retried"
        ]
        assert retried and retried[0]["reason"] == "timeout"

    def test_always_hanging_cell_exhausts(self, tmp_path, monkeypatch):
        campaign = chaos_campaign(rates=(4.0, 8.0))
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps(
                [{"match": {"send_rate_gbps": 8.0}, "hang_attempts": 99, "hang_s": 60.0}]
            ),
        )
        store = ResultStore(tmp_path / "grid.jsonl")
        summary = CampaignExecutor(
            workers=2, cell_timeout_s=1.0, max_attempts=2, retry_backoff_s=0.05
        ).run_campaign(campaign, store=store)
        assert summary.executed == 2
        assert summary.failed == 1
        assert summary.exhausted == 1
        latest = store.latest_by_hash()
        statuses = sorted(record["status"] for record in latest.values())
        assert statuses == ["exhausted", "ok"]
        marker = next(
            record for record in latest.values() if record["status"] == "exhausted"
        )
        assert marker["attempts"] == 2
        assert "timeout" in marker["error"]

        # Resume honors the marker: nothing to do, nothing duplicated.
        monkeypatch.delenv(CHAOS_ENV)
        again = CampaignExecutor(workers=2, max_attempts=2).run_campaign(
            campaign, store=store
        )
        assert again.executed == 0
        assert again.skipped == 2
