"""Where campaign events come from: the orchestrating process only.

The dispatcher emits a lease's ``cell_started`` with the leased
worker's pid and, while its health scan sees that worker alive, a
``heartbeat`` every ``heartbeat_interval_s``; the serial executor emits
``cell_started`` with its own pid and no heartbeat.  Workers emit
nothing.  A campaign with a store appends every event to it.  Chaos is
injected through ``REPRO_CAMPAIGN_CHAOS`` (see
:mod:`repro.orchestrator.dispatcher`).
"""

import json
import logging
import os

import pytest

from repro.orchestrator import CampaignExecutor, CampaignSpec, DispatchLoop, ResultStore
from repro.orchestrator.dispatcher import CHAOS_ENV
from repro.orchestrator.store import is_event

#: Simulated-time scale keeping each run cheap while still exercising traffic.
FAST = 0.05

#: The event types a lease's life can show.
LEASE_EVENTS = ("cell_started", "heartbeat", "worker_died", "cell_retried")


def grid_specs(rates=(2.0, 4.0, 6.0)):
    return CampaignSpec(
        name="event-origin",
        scenario="fw_nat_lb_10ge",
        grid={"send_rate_gbps": list(rates)},
        time_scale=FAST,
    ).expand()


def lease_story(events, spec_hash):
    """``(type, pid, reason)`` for every lease event of one cell, in order."""
    return [
        (event["type"], event.get("pid"), event.get("reason"))
        for event in events
        if event["type"] in LEASE_EVENTS and event.get("spec_hash") == spec_hash
    ]


def test_every_lease_emits_cell_started_with_the_workers_pid():
    specs = grid_specs()
    events = []
    loop = DispatchLoop(processes=2, emit=events.append)
    worker_pids = set()
    for _record in loop.run(specs):
        worker_pids |= {worker.process.pid for worker in loop._workers.values()}
    started = [event for event in events if event["type"] == "cell_started"]
    assert sorted(event["spec_hash"] for event in started) == sorted(
        spec.spec_hash for spec in specs
    )
    for event, spec in zip(
        sorted(started, key=lambda e: e["spec_hash"]),
        sorted(specs, key=lambda s: s.spec_hash),
    ):
        assert (event["scenario"], event["params"]) == (spec.scenario, dict(spec.params))
    assert {event["pid"] for event in started} <= worker_pids
    assert os.getpid() not in worker_pids


def test_a_crashed_lease_restarts_under_a_new_pid(monkeypatch):
    specs = grid_specs(rates=(2.0, 4.0))
    monkeypatch.setenv(
        CHAOS_ENV,
        json.dumps([{"match": {"send_rate_gbps": 4.0}, "crash_attempts": 1}]),
    )
    events = []
    records = list(
        DispatchLoop(processes=2, emit=events.append, retry_backoff_s=0.05).run(specs)
    )
    assert {record["status"] for record in records} == {"ok"}
    crashed = next(spec for spec in specs if spec.params["send_rate_gbps"] == 4.0)
    story = lease_story(events, crashed.spec_hash)
    # The worker died before it ran the cell; its lease still shows.
    assert [kind for kind, _pid, _reason in story] == [
        "cell_started", "worker_died", "cell_retried", "cell_started",
    ]
    first, died, retried, second = story
    assert first[1] == died[1] and died[2] == retried[2] == "crashed"
    assert second[1] not in (None, first[1])


def test_a_hung_lease_beats_until_it_is_reaped(monkeypatch):
    specs = grid_specs(rates=(2.0, 4.0))
    monkeypatch.setenv(
        CHAOS_ENV,
        json.dumps([{"match": {"send_rate_gbps": 4.0}, "hang_attempts": 1, "hang_s": 60.0}]),
    )
    events = []
    records = list(
        DispatchLoop(
            processes=2,
            emit=events.append,
            heartbeat_interval_s=0.2,
            cell_timeout_s=2.0,
            retry_backoff_s=0.05,
        ).run(specs)
    )
    assert {record["status"] for record in records} == {"ok"}
    hung = next(spec for spec in specs if spec.params["send_rate_gbps"] == 4.0)
    story = lease_story(events, hung.spec_hash)
    kinds = [kind for kind, _pid, _reason in story]
    reaped = kinds.index("worker_died")
    hung_pid = story[0][1]
    assert story[0][0] == "cell_started"
    before = story[1:reaped]
    assert all(event == ("heartbeat", hung_pid, None) for event in before)
    # One per interval of the two-second lease, not one per tick.
    assert 1 <= len(before) <= 2.0 / 0.2
    assert story[reaped] == ("worker_died", hung_pid, "timeout")
    assert story[reaped + 1] == ("cell_retried", None, "timeout")
    assert story[reaped + 2][0] == "cell_started"
    assert all(pid != hung_pid for _kind, pid, _reason in story[reaped + 2:])


def test_a_serial_run_starts_cells_in_its_own_process_and_never_beats(tmp_path):
    specs = grid_specs(rates=(2.0, 4.0))
    store = tmp_path / "serial.jsonl"
    CampaignExecutor(workers=1, heartbeat_interval_s=0.01).run_specs(
        specs, store=ResultStore(store)
    )
    events = [
        line for line in map(json.loads, store.read_text().splitlines()) if is_event(line)
    ]
    started = [event for event in events if event["type"] == "cell_started"]
    assert [event["spec_hash"] for event in started] == [spec.spec_hash for spec in specs]
    assert {event["pid"] for event in started} == {os.getpid()}
    assert not any(event["type"] == "heartbeat" for event in events)


def test_a_sink_that_raises_never_stops_dispatch(caplog):
    """An event the store cannot take is logged; the cells still run."""
    specs = grid_specs(rates=(2.0, 4.0))
    tried = []

    def unwritable(event):
        tried.append(event["type"])
        raise OSError("No space left on device")

    with caplog.at_level(logging.DEBUG, logger="repro.orchestrator.dispatcher"):
        records = list(DispatchLoop(processes=2, emit=unwritable).run(specs))
    assert sorted(record["spec_hash"] for record in records) == sorted(
        spec.spec_hash for spec in specs
    )
    assert {record["status"] for record in records} == {"ok"}
    assert tried.count("cell_started") == 2
    failures = [r for r in caplog.records if r.message == "dispatcher event emit failed"]
    assert len(failures) == len(tried)
    assert all(r.exc_info[0] is OSError for r in failures)


@pytest.mark.parametrize("interval", [0, -1, float("inf"), float("nan")])
def test_the_heartbeat_interval_is_checked_when_built(interval):
    with pytest.raises(ValueError, match="heartbeat_interval_s"):
        DispatchLoop(processes=1, heartbeat_interval_s=interval)
