"""Live and post-hoc proof of the campaign observability layer.

The acceptance scenario for the campaign events + serve stack: during a
running 12-cell campaign the `/status` endpoint must show monotonically
increasing completed counts and a finite ETA, an invariant-violating
`validate: true` cell must appear in `/violations` *before* the
campaign exits, and afterwards a monitor rebuilt from the store alone
must serve the identical final state.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.obs.schema import (
    validate_campaign_cells,
    validate_campaign_event,
    validate_campaign_status,
    validate_campaign_violations,
)
from repro.orchestrator import (
    CampaignExecutor,
    CampaignMonitor,
    CampaignSpec,
    ResultStore,
)
from repro.orchestrator.serve import CampaignServer, StoreFollower, monitor_from_store
from repro.orchestrator.store import is_event

FAST = 0.05

def twelve_cell_campaign(**kwargs):
    defaults = dict(
        name="serve-live",
        scenario="fw_nat_lb_10ge",
        grid={
            "send_rate_gbps": [2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            "expiry_threshold": [1, 4],
        },
        time_scale=FAST,
        options={"validate": True},
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def _get_json(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read())


class _InjectedViolation(Exception):
    pass


@pytest.fixture()
def violating_observer(monkeypatch):
    """Patch the validation engine so slow-rate cells violate an invariant.

    The executor imports ``ValidationObserver`` lazily inside the worker,
    and the fork start method inherits this patch into pool processes.
    """
    from repro.validation import engine
    from repro.validation.engine import ValidationObserver, Violation

    class Sabotaged(ValidationObserver):
        def on_run_end(self, scenario, deployment, topology, program, reports):
            super().on_run_end(scenario, deployment, topology, program, reports)
            if getattr(scenario, "send_rate_gbps", None) == 2.0:
                self.violations.append(
                    Violation(
                        check="injected-check",
                        message="synthetic violation for the serve test",
                        scenario=getattr(scenario, "name", "fw_nat_lb_10ge"),
                        deployment=str(deployment),
                    )
                )

    monkeypatch.setattr(engine, "ValidationObserver", Sabotaged)
    return Sabotaged


class TestLiveCampaignServe:
    def test_live_endpoints_then_posthoc_parity(self, tmp_path, violating_observer):
        campaign = twelve_cell_campaign()
        store = ResultStore(tmp_path / "serve-live.jsonl")

        # The exact live-attach pipeline the CLI wires up: the campaign
        # process appends records and events to its store, and the
        # serving side follows the files into its *own* monitor.
        serve_monitor = CampaignMonitor(
            total=campaign.point_count, campaign=campaign.name,
            scenario=campaign.scenario, mode=campaign.mode,
        )
        follower = StoreFollower(serve_monitor, store.path, poll_interval_s=0.02)
        follower.start()
        server = CampaignServer(serve_monitor).start()

        samples = []
        sampling = threading.Event()
        sampling.set()

        def sample():
            while sampling.is_set():
                try:
                    status = _get_json(server.url + "/status")
                    violations = _get_json(server.url + "/violations")
                except OSError:  # pragma: no cover - server teardown race
                    break
                samples.append((status, violations))
                time.sleep(0.03)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            summary = CampaignExecutor(workers=2).run_campaign(campaign, store=store)
            # One last sampler pass sees the post-campaign state, then
            # drain the pipeline deterministically.
            time.sleep(0.1)
        finally:
            sampling.clear()
            sampler.join(timeout=5)
            follower.stop()

        assert summary.executed == 12
        # Two cells (send_rate 2.0 × both expiry values) were sabotaged.
        assert summary.failed == 2

        # -- live assertions over the sampled sequence ----------------
        assert samples, "sampler never reached the server"
        for status, violations in samples:
            validate_campaign_status(status)
            validate_campaign_violations(violations)
        done_series = [status["cells_done"] for status, _ in samples]
        assert all(b >= a for a, b in zip(done_series, done_series[1:])), (
            f"completed counts regressed: {done_series}"
        )
        mid_run = [
            status for status, _ in samples
            if 0 < status["cells_done"] < status["cells_total"]
        ]
        assert mid_run, f"no mid-run samples in {done_series}"
        assert any(
            status["eta_s"] is not None and 0 < status["eta_s"] < 3600
            for status in mid_run
        ), "no finite ETA observed mid-run"
        # The violating cell surfaced on the wire before campaign exit:
        # the final sample was taken while the server still followed the
        # live files, and earlier-than-final is even stronger evidence.
        assert any(
            violations["violations"] for _, violations in samples
        ), "no violation reached /violations during the campaign"
        injected = [
            entry
            for _, violations in samples
            for entry in violations["violations"]
        ]
        assert any(entry["check"] == "injected-check" for entry in injected)

        # -- post-hoc parity ------------------------------------------
        follower.poll_once()
        live_status = validate_campaign_status(serve_monitor.status())
        assert live_status["state"] == "finished"
        assert live_status["cells_done"] == 12
        assert live_status["cells_violation"] == 2
        assert live_status["violations_total"] >= 2

        # Live and post-hoc read the same store lines, so no field may
        # differ: not the pids, heartbeats and timestamps, not the count
        # of events seen.
        posthoc = monitor_from_store(campaign, store)
        assert validate_campaign_status(posthoc.status()) == live_status
        assert validate_campaign_cells(
            serve_monitor.cells_payload()
        ) == validate_campaign_cells(posthoc.cells_payload())
        assert validate_campaign_violations(
            serve_monitor.violations_payload()
        ) == validate_campaign_violations(posthoc.violations_payload())

        # The post-hoc server answers over HTTP too.
        with CampaignServer(posthoc) as posthoc_server:
            assert _get_json(posthoc_server.url + "/status") == live_status
        server.stop()

    def test_store_event_lines_validate(self, tmp_path):
        campaign = twelve_cell_campaign(
            name="events",
            grid={"send_rate_gbps": [2.0, 4.0], "expiry_threshold": [1]},
            options={},
        )
        store = ResultStore(tmp_path / "events.jsonl")
        CampaignExecutor(workers=1).run_campaign(campaign, store=store)
        lines = [json.loads(line) for line in store.path.read_text().splitlines()]
        events = [validate_campaign_event(line) for line in lines if is_event(line)]
        types = [event["type"] for event in events]
        assert types == [
            "campaign_started", "cell_started", "cell_started", "campaign_finished",
        ]
        # Records carry the time they were appended, as events do.
        assert all(isinstance(line["ts"], float) for line in lines)
        assert store.record_count() == 2
        # Serial path still reports worker-side context.
        started = next(e for e in events if e["type"] == "cell_started")
        assert started["pid"] > 0

    def test_resume_skips_completed_and_monitor_still_converges(self, tmp_path):
        campaign = twelve_cell_campaign(
            name="resume",
            grid={"send_rate_gbps": [2.0, 4.0], "expiry_threshold": [1]},
            options={},
        )
        store = ResultStore(tmp_path / "resume.jsonl")
        CampaignExecutor(workers=1).run_campaign(campaign, store=store)
        summary = CampaignExecutor(workers=1).run_campaign(campaign, store=store)
        assert summary.skipped == 2
        # The resume appended only its start and finish; the store still
        # rebuilds all.
        posthoc = monitor_from_store(campaign, store)
        assert posthoc.status()["cells_done"] == 2
